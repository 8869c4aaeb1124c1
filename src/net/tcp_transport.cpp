#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/child_transport.h"
#include "util/error.h"

namespace pem::net {
namespace {

[[noreturn]] void ThrowTcp(AgentId agent, ErrorCode code, std::string detail) {
  throw TransportError(TransportFault{agent, code, std::move(detail)});
}

sockaddr_in ResolveNumericHost(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  PEM_CHECK(inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) == 1,
            "tcp transport: host must be a numeric IPv4 address");
  return addr;
}

// Small frames dominate the protocol; Nagle would batch them behind
// 40ms delayed-ACK stalls.
void SetNoDelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void LimitSocketBuffers(int fd, int bytes) {
  if (bytes <= 0) return;
  // The kernel clamps to its floor (and doubles for bookkeeping); the
  // point is a bound FAR below one large frame, not an exact size.
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
}

int RemainingMs(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

struct Hello {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;
  AgentId agent = -1;
};

// Reads exactly the 16 hello bytes with a deadline.  A connection that
// stalls, hangs up, or sends garbage is rejected with a structured
// error — the rendezvous must never block on a misbehaving dialer.
Hello ReadHelloOrThrow(int fd, std::chrono::steady_clock::time_point deadline) {
  uint8_t buf[kTcpHelloBytes];
  size_t got = 0;
  while (got < sizeof buf) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = poll(&pfd, 1, RemainingMs(deadline) > 0
                                     ? RemainingMs(deadline)
                                     : 1);
    if (pr < 0) {
      PEM_CHECK(errno == EINTR, "tcp transport: poll failed");
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ThrowTcp(-1, ErrorCode::kProtocolViolation,
               "tcp transport: connection stalled before completing its "
               "hello");
    }
    if (pr == 0) continue;
    const ssize_t n = recv(fd, buf + got, sizeof buf - got, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      ThrowTcp(-1, ErrorCode::kProtocolViolation,
               std::string("tcp transport: hello recv failed (") +
                   std::strerror(errno) + ")");
    }
    if (n == 0) {
      ThrowTcp(-1, ErrorCode::kProtocolViolation,
               "tcp transport: peer hung up before completing its hello");
    }
    got += static_cast<size_t>(n);
  }
  Hello h;
  h.magic = LoadU32(buf);
  h.version = LoadU32(buf + 4);
  h.kind = LoadU32(buf + 8);
  h.agent = static_cast<AgentId>(LoadU32(buf + 12));
  return h;
}

const char* HelloKindName(uint32_t kind) {
  return kind == kTcpHelloKindWire ? "wire" : "control";
}

}  // namespace

// --- TcpListener ------------------------------------------------------

TcpListener::TcpListener(const std::string& host, uint16_t port, int backlog,
                         int socket_buffer_bytes) {
  const sockaddr_in addr = ResolveNumericHost(host, port);
  // SOCK_CLOEXEC: the rendezvous listener must never leak into an
  // exec()ed process; forked children still close it explicitly.
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  PEM_CHECK(fd_ >= 0, "tcp transport: socket() failed");
  const int one = 1;
  (void)setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  // Buffer sizes must be set on the LISTENER: accepted sockets inherit
  // them, and SO_RCVBUF after accept is too late to shrink the window
  // scale negotiated at SYN time.
  LimitSocketBuffers(fd_, socket_buffer_bytes);
  // Nonblocking so Accept() can never hang past its deadline: a dialer
  // that completes the handshake and RSTs before we reach accept(2)
  // silently vanishes from the queue, and a blocking accept would then
  // sleep with no timeout (the race accept(2)'s man page warns about).
  SetNonBlocking(fd_);
  PEM_CHECK(bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof addr) == 0,
            "tcp transport: bind failed (port in use?)");
  PEM_CHECK(listen(fd_, backlog) == 0, "tcp transport: listen failed");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  PEM_CHECK(getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
            "tcp transport: getsockname failed");
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() { Close(); }

void TcpListener::Close() {
  CloseIfOpen(fd_);
  fd_ = -1;
}

int TcpListener::Accept(int timeout_ms, const std::string& who) {
  PEM_CHECK(fd_ >= 0, "tcp transport: accept on a closed listener");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int left = RemainingMs(deadline);
    if (left <= 0) {
      ThrowTcp(-1, ErrorCode::kProtocolViolation,
               "tcp transport: rendezvous timeout after " +
                   std::to_string(timeout_ms) + "ms waiting for " + who);
    }
    const int pr = poll(&pfd, 1, left);
    if (pr < 0) {
      PEM_CHECK(errno == EINTR, "tcp transport: poll failed");
      continue;
    }
    if (pr == 0) continue;  // deadline check above fires next pass
    const int fd = accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // Transient per-connection failures (dialer aborted between
      // SYN and accept) must not kill the rendezvous.
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      PEM_CHECK(false, "tcp transport: accept failed");
    }
    return fd;
  }
}

// --- client half ------------------------------------------------------

namespace {

// One nonblocking connect attempt bounded by the caller's deadline.
// Returns a connected fd, or -1 with `err` set for a retryable refusal
// (listener not up yet / backlog full); throws on deadline expiry so a
// blackholed route (SYNs silently dropped: the kernel's own retry
// schedule runs minutes) cannot outlive timeout_ms.
int TryConnectOnce(const sockaddr_in& addr, int socket_buffer_bytes,
                   std::chrono::steady_clock::time_point deadline,
                   AgentId agent, int* err) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  PEM_CHECK(fd >= 0, "tcp transport: socket() failed");
  // Buffer sizes must be set before connect to take effect on the
  // receive window.
  LimitSocketBuffers(fd, socket_buffer_bytes);
  SetNonBlocking(fd);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 &&
      errno != EINPROGRESS) {
    *err = errno;
    close(fd);
    return -1;
  }
  for (;;) {
    pollfd pfd{fd, POLLOUT, 0};
    const int left = RemainingMs(deadline);
    if (left <= 0) {
      close(fd);
      ThrowTcp(agent, ErrorCode::kProtocolViolation,
               "tcp transport: agent " + std::to_string(agent) +
                   " connect timed out (SYN unanswered)");
    }
    const int pr = poll(&pfd, 1, left);
    if (pr < 0) {
      PEM_CHECK(errno == EINTR, "tcp transport: poll failed");
      continue;
    }
    if (pr == 0) continue;  // deadline check above fires next pass
    int so_error = 0;
    socklen_t len = sizeof so_error;
    PEM_CHECK(getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0,
              "tcp transport: getsockopt(SO_ERROR) failed");
    if (so_error != 0) {
      *err = so_error;
      close(fd);
      return -1;
    }
    // Connected: the rest of the stack (blocking SendAll / recv loops)
    // expects a blocking descriptor.
    const int flags = fcntl(fd, F_GETFL, 0);
    PEM_CHECK(flags >= 0 && fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) == 0,
              "tcp transport: fcntl failed");
    return fd;
  }
}

}  // namespace

int TcpConnectAndHello(const std::string& host, uint16_t port, uint32_t kind,
                       AgentId agent, int timeout_ms,
                       int socket_buffer_bytes) {
  const sockaddr_in addr = ResolveNumericHost(host, port);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int fd = -1;
  for (;;) {
    int err = 0;
    fd = TryConnectOnce(addr, socket_buffer_bytes, deadline, agent, &err);
    if (fd >= 0) break;
    if (RemainingMs(deadline) <= 0) {
      ThrowTcp(agent, ErrorCode::kProtocolViolation,
               "tcp transport: agent " + std::to_string(agent) +
                   " could not connect to " + host + ":" +
                   std::to_string(port) + " within " +
                   std::to_string(timeout_ms) + "ms (" + std::strerror(err) +
                   ")");
    }
    // The listener may not be up yet (parent still forking siblings)
    // or its backlog momentarily full; retry until the deadline.
    usleep(2000);
  }
  SetNoDelay(fd);
  uint8_t hello[kTcpHelloBytes];
  StoreU32(hello, kTcpHelloMagic);
  StoreU32(hello + 4, kTcpHelloVersion);
  StoreU32(hello + 8, kind);
  StoreU32(hello + 12, static_cast<uint32_t>(agent));
  try {
    SendAllOrThrow(fd, hello, sizeof hello, agent, "tcp transport: hello");
  } catch (...) {
    close(fd);
    throw;
  }
  return fd;
}

TcpAgentSockets ConnectTcpAgent(const std::string& host, uint16_t port,
                                AgentId agent, int timeout_ms,
                                int socket_buffer_bytes) {
  TcpAgentSockets s;
  s.wire_fd = TcpConnectAndHello(host, port, kTcpHelloKindWire, agent,
                                 timeout_ms, socket_buffer_bytes);
  try {
    s.ctl_fd = TcpConnectAndHello(host, port, kTcpHelloKindControl, agent,
                                  timeout_ms, socket_buffer_bytes);
  } catch (...) {
    close(s.wire_fd);
    throw;
  }
  return s;
}

// --- TcpTransport -----------------------------------------------------

namespace {

[[noreturn]] void RunTcpChild(AgentId self, int num_agents, int listener_fd,
                              uint16_t port, const TcpTransport::Options& opts,
                              const AgentSupervisor::ChildMain& child_main) {
  // Die with the parent even while still dialing.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  // The rendezvous socket is the parent's; this child owns EXACTLY the
  // two connections it is about to dial.
  CloseIfOpen(listener_fd);
  try {
    const TcpAgentSockets s =
        ConnectTcpAgent(opts.host, port, self, opts.connect_timeout_ms,
                        opts.socket_buffer_bytes);
    RunChild(self, num_agents,
             std::make_unique<SocketStream>(num_agents, self, s.wire_fd),
             s.ctl_fd, child_main);
  } catch (...) {
    // Could not even reach the rendezvous; the parent's accept timeout
    // reports the loss.
    _exit(3);
  }
}

}  // namespace

TcpTransport::TcpTransport(int num_agents, Options opts)
    : AgentSupervisor(num_agents, {opts.watchdog_ms}),
      listener_(opts.host, opts.port, /*backlog=*/2 * num_agents + 8,
                opts.socket_buffer_bytes),
      opts_(std::move(opts)) {}

TcpTransport::TcpTransport(int num_agents, ChildMain child_main, Options opts)
    : TcpTransport(num_agents, std::move(opts)) {
  PEM_CHECK(child_main != nullptr, "TcpTransport needs a child entry point");
  // Fork BEFORE the router thread exists (fork clones only the calling
  // thread) and before any accept: the children dial in while we sit
  // in the rendezvous loop.
  for (int i = 0; i < num_agents; ++i) {
    const pid_t pid = fork();
    PEM_CHECK(pid >= 0, "tcp transport: fork failed");
    if (pid == 0) {
      RunTcpChild(static_cast<AgentId>(i), num_agents, listener_.fd(),
                  listener_.port(), opts_, child_main);
    }
    RegisterChild(static_cast<AgentId>(i), pid);
  }
  // A failed rendezvous throws from here; the base destructor kills and
  // reaps the children registered above.
  WaitForAgents();
}

void TcpTransport::WaitForAgents() {
  if (accepted_) return;
  const int n = num_agents();
  std::vector<int> wire_fds(static_cast<size_t>(n), -1);
  std::vector<int> ctl_fds(static_cast<size_t>(n), -1);
  const auto close_all = [&] {
    for (const int fd : wire_fds) CloseIfOpen(fd);
    for (const int fd : ctl_fds) CloseIfOpen(fd);
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.connect_timeout_ms);
  try {
    int missing = 2 * n;
    while (missing > 0) {
      // Name the still-absent agents so a rendezvous timeout reads as
      // "agent 3 never connected", not a bare deadline.
      std::string who;
      for (AgentId a = 0; a < n; ++a) {
        if (wire_fds[static_cast<size_t>(a)] >= 0 &&
            ctl_fds[static_cast<size_t>(a)] >= 0) {
          continue;
        }
        if (!who.empty()) who += ", ";
        who += "agent " + std::to_string(a);
      }
      const int fd = listener_.Accept(RemainingMs(deadline), who);
      Hello h;
      try {
        h = ReadHelloOrThrow(fd, deadline);
        if (h.magic != kTcpHelloMagic) {
          ThrowTcp(-1, ErrorCode::kSerialization,
                   "tcp transport: connection sent garbage before its hello "
                   "(bad magic)");
        }
        if (h.version != kTcpHelloVersion) {
          ThrowTcp(-1, ErrorCode::kSerialization,
                   "tcp transport: hello version " + std::to_string(h.version) +
                       " != " + std::to_string(kTcpHelloVersion));
        }
        if (h.kind != kTcpHelloKindWire && h.kind != kTcpHelloKindControl) {
          ThrowTcp(-1, ErrorCode::kSerialization,
                   "tcp transport: hello names unknown connection kind " +
                       std::to_string(h.kind));
        }
        if (h.agent < 0 || h.agent >= n) {
          ThrowTcp(h.agent, ErrorCode::kProtocolViolation,
                   "tcp transport: hello names agent " +
                       std::to_string(h.agent) + " out of range [0, " +
                       std::to_string(n) + ")");
        }
        std::vector<int>& slot =
            h.kind == kTcpHelloKindWire ? wire_fds : ctl_fds;
        if (slot[static_cast<size_t>(h.agent)] >= 0) {
          ThrowTcp(h.agent, ErrorCode::kProtocolViolation,
                   "tcp transport: duplicate " +
                       std::string(HelloKindName(h.kind)) +
                       " connect for agent " + std::to_string(h.agent));
        }
        SetNoDelay(fd);
        slot[static_cast<size_t>(h.agent)] = fd;
        --missing;
      } catch (...) {
        close(fd);
        throw;
      }
    }
  } catch (...) {
    close_all();
    throw;
  }
  for (AgentId a = 0; a < n; ++a) {
    AdoptChild(a, wire_fds[static_cast<size_t>(a)],
               ctl_fds[static_cast<size_t>(a)]);
  }
  StartRouter();
  // Rendezvous over: no reconnects are expected, and an idle listening
  // port is one more thing a lifecycle test would flag as leaked.
  listener_.Close();
  accepted_ = true;
}

}  // namespace pem::net
