// Shared scaffolding for the relay router and the forked backends.
//
// ProcessTransport's children (one forked process per agent) reach
// each other through one relay router (net::AgentSupervisor) that must
// never block on one slow peer: routed frames queue in a per-destination
// PendingBuf and are flushed with nonblocking writes, and the main
// thread unparks a router sleeping in epoll through a wake
// socketpair.  This header holds that machinery plus the descriptor
// helpers (nonblocking toggles, fully retried writes) every
// out-of-process backend needs, so no backend keeps a hand-synced copy
// of relay plumbing.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "util/error.h"

namespace pem::net {

// Little-endian u32 load/store for the small fixed-layout records the
// out-of-process backends exchange beside the frame codec (control
// records).  One copy, used by every transport.
inline uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline void StoreU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  PEM_CHECK(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "relay: fcntl(O_NONBLOCK) failed");
}

inline void MakeSocketPair(int* a, int* b) {
  int fds[2];
  // SOCK_CLOEXEC: a forked child inherits exactly the ends its launcher
  // hands over (fork keeps fds regardless); anything that ever exec()s
  // must not leak wire fds into the new program.
  PEM_CHECK(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0,
            "relay: socketpair failed");
  *a = fds[0];
  *b = fds[1];
}

inline void CloseIfOpen(int fd) {
  if (fd >= 0) close(fd);
}

// Scope-bound descriptor (the routers' epoll fd): closed on every exit
// path of a thread body without threading close() through each return.
struct FdGuard {
  explicit FdGuard(int f) : fd(f) {}
  ~FdGuard() { CloseIfOpen(fd); }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  int fd = -1;
};

// Blocking FULL write: a short send() — the kernel takes whatever fits
// in SO_SNDBUF, so a frame larger than the socket buffer always
// crosses in pieces — is retried until every byte is queued, and a
// dead peer surfaces as a structured error (MSG_NOSIGNAL keeps EPIPE
// an errno, not a SIGPIPE).  `agent` and `what` only flavor the error
// message.
inline void SendAllOrThrow(int fd, const uint8_t* data, size_t len,
                           AgentId agent, const char* what) {
  while (len > 0) {
    const ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(TransportFault{
          agent, ErrorCode::kProtocolViolation,
          std::string(what) + ": write failed (" + std::strerror(errno) +
              ")"});
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

// Bytes routed to a destination but not yet flushed into its (full)
// socket.  Router-thread-only.
struct PendingBuf {
  std::vector<uint8_t> bytes;
  size_t off = 0;

  bool empty() const { return off == bytes.size(); }
  void Clear() {
    bytes.clear();
    off = 0;
  }
};

enum class FlushResult {
  kDrained,     // everything written; buffer cleared
  kWouldBlock,  // socket full; try again on POLLOUT
  kPeerClosed,  // EPIPE/hard error; buffer cleared, caller latches fault
};

// Nonblocking flush of `p` into `fd` (MSG_NOSIGNAL keeps a dead peer
// an errno, not a SIGPIPE).
inline FlushResult FlushPendingBuf(int fd, PendingBuf& p) {
  while (!p.empty()) {
    const ssize_t n = send(fd, p.bytes.data() + p.off, p.bytes.size() - p.off,
                           MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushResult::kWouldBlock;
      if (errno == EINTR) continue;
      p.Clear();
      return FlushResult::kPeerClosed;
    }
    p.off += static_cast<size_t>(n);
  }
  p.Clear();
  return FlushResult::kDrained;
}

// The wakeup channel: anyone may Wake() (nonblocking, coalescing), the
// router polls recv_fd and Drain()s.
struct WakePipe {
  int send_fd = -1;
  int recv_fd = -1;

  void Open() {
    int fds[2];
    PEM_CHECK(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) == 0,
              "wake pipe: socketpair failed");
    send_fd = fds[0];
    recv_fd = fds[1];
    for (const int fd : {send_fd, recv_fd}) {
      const int flags = fcntl(fd, F_GETFL, 0);
      PEM_CHECK(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "wake pipe: fcntl(O_NONBLOCK) failed");
    }
  }

  void Close() {
    if (send_fd >= 0) close(send_fd);
    if (recv_fd >= 0) close(recv_fd);
    send_fd = recv_fd = -1;
  }

  void Wake() const {
    const uint8_t b = 1;
    // A full pipe already guarantees a pending wake.
    (void)send(send_fd, &b, 1, MSG_DONTWAIT | MSG_NOSIGNAL);
  }

  void Drain() const {
    uint8_t buf[64];
    while (recv(recv_fd, buf, sizeof buf, MSG_DONTWAIT) > 0) {
    }
  }
};

}  // namespace pem::net
