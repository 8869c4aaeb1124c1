#include "net/process_transport.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/error.h"

namespace pem::net {
namespace {

std::string HexU32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

// Divergence guard: if this many frames arrive without the script's
// expected one among them, the wire and the deterministic replica have
// parted ways and blocking further would only hide it.
constexpr size_t kMaxStashedFrames = size_t{1} << 16;

}  // namespace

// --- ProcessChildTransport --------------------------------------------

ProcessChildTransport::ProcessChildTransport(int num_agents, AgentId self,
                                             int wire_fd)
    : shadow_(num_agents), self_(self), wire_fd_(wire_fd) {
  PEM_CHECK(self >= 0 && self < num_agents,
            "process child transport: self id out of range");
  PEM_CHECK(wire_fd >= 0, "process child transport: bad wire descriptor");
}

ProcessChildTransport::~ProcessChildTransport() { CloseIfOpen(wire_fd_); }

void ProcessChildTransport::Send(Message msg) {
  if (msg.from == self_) {
    // Own traffic is real: one canonical frame to the parent router
    // (broadcasts fan out there, as they would at a switch).  Encode
    // before the shadow consumes the message.
    const std::vector<uint8_t> frame = EncodeFrame(msg);
    shadow_.Send(std::move(msg));
    SendAllOrThrow(wire_fd_, frame.data(), frame.size(), self_,
                   "process child transport: wire");
    return;
  }
  // Another agent's send: shadow only, to keep the script advancing.
  shadow_.Send(std::move(msg));
}

Message ProcessChildTransport::ReadWireFrame() {
  for (;;) {
    if (std::optional<Message> m = rx_.Next()) return std::move(*m);
    uint8_t buf[4096];
    const ssize_t n = recv(wire_fd_, buf, sizeof buf, 0);
    if (n < 0) {
      PEM_CHECK(errno == EINTR, "process child transport: recv failed");
      continue;
    }
    if (n == 0) {
      throw TransportError(TransportFault{
          self_, ErrorCode::kProtocolViolation,
          "process child transport: agent " + std::to_string(self_) +
              " wire closed by the parent router mid-protocol"});
    }
    rx_.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
}

std::optional<Message> ProcessChildTransport::Receive(AgentId agent) {
  std::optional<Message> expected = shadow_.Receive(agent);
  if (agent != self_ || !expected.has_value()) return expected;
  // Own receive: the deterministic script names the exact frame this
  // agent must consume next; insist a byte-identical frame physically
  // arrives.  Frames from concurrent senders may arrive early relative
  // to the script (the processes really run in parallel) — stash them
  // until their turn.
  for (size_t i = 0; i < stash_.size(); ++i) {
    if (stash_[i] == *expected) {
      stash_.erase(stash_.begin() + static_cast<ptrdiff_t>(i));
      return expected;
    }
  }
  for (;;) {
    Message m = ReadWireFrame();
    if (m == *expected) return expected;
    stash_.push_back(std::move(m));
    if (stash_.size() >= kMaxStashedFrames) {
      throw TransportError(TransportFault{
          self_, ErrorCode::kProtocolViolation,
          "process child transport: agent " + std::to_string(self_) +
              " stashed " + std::to_string(stash_.size()) +
              " frames without seeing the expected one (type " +
              HexU32(expected->type) + " from " +
              std::to_string(expected->from) +
              ") — wire and deterministic script diverged"});
    }
  }
}

bool ProcessChildTransport::HasMessage(AgentId agent) const {
  return shadow_.HasMessage(agent);
}

TrafficStats ProcessChildTransport::stats(AgentId agent) const {
  return shadow_.stats(agent);
}

double ProcessChildTransport::AverageBytesPerAgent() const {
  return shadow_.AverageBytesPerAgent();
}

void ProcessChildTransport::SetObserver(Observer observer) {
  shadow_.SetObserver(std::move(observer));
}

void ProcessChildTransport::VerifyQuiescent() const {
  PEM_CHECK(stash_.empty(),
            "process child transport: unconsumed stashed frames at teardown");
  PEM_CHECK(rx_.buffered_bytes() == 0,
            "process child transport: partial frame buffered at teardown");
  uint8_t probe;
  const ssize_t n = recv(wire_fd_, &probe, 1, MSG_DONTWAIT | MSG_PEEK);
  PEM_CHECK(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK),
            "process child transport: unread wire bytes at teardown");
}

void ProcessChildTransport::WriteWireBytesForTest(
    std::span<const uint8_t> bytes) {
  SendAllOrThrow(wire_fd_, bytes.data(), bytes.size(), self_,
                 "process child transport: wire");
}

// --- child entry point ------------------------------------------------

void RunAdoptedChild(AgentId self, int num_agents, int wire_fd, int ctl_fd,
                     const AgentSupervisor::ChildMain& child_main) {
  // Die with the parent: a crashed/killed orchestrator must never leave
  // agent processes behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  ControlChannel ctl(ctl_fd, self);
  int code = 127;
  try {
    ProcessChildTransport wire(num_agents, self, wire_fd);
    code = child_main(self, wire, ctl);
    wire.VerifyQuiescent();
  } catch (const std::exception& e) {
    try {
      const char* what = e.what();
      ctl.Write(kCtlRepError,
                std::span<const uint8_t>(
                    reinterpret_cast<const uint8_t*>(what),
                    std::strlen(what)));
    } catch (...) {
      // Parent gone too; the wait status is all that is left to say.
    }
    _exit(1);
  } catch (...) {
    _exit(2);
  }
  // _exit, not exit: the child shares the parent's stdio buffers and
  // must not flush them (or run the parent's atexit hooks) twice.
  _exit(code);
}

// --- ProcessTransport -------------------------------------------------

namespace {

struct ChildFds {
  int wire_parent = -1;
  int wire_child = -1;
  int ctl_parent = -1;
  int ctl_child = -1;
};

[[noreturn]] void RunForkedChild(AgentId self, int num_agents,
                                 const std::vector<ChildFds>& fds,
                                 const AgentSupervisor::ChildMain& main) {
  // Inherit EXACTLY this agent's ends; every other descriptor in the
  // table belongs to the parent or a sibling.
  for (int j = 0; j < num_agents; ++j) {
    CloseIfOpen(fds[static_cast<size_t>(j)].wire_parent);
    CloseIfOpen(fds[static_cast<size_t>(j)].ctl_parent);
    if (j != self) {
      CloseIfOpen(fds[static_cast<size_t>(j)].wire_child);
      CloseIfOpen(fds[static_cast<size_t>(j)].ctl_child);
    }
  }
  RunAdoptedChild(self, num_agents, fds[static_cast<size_t>(self)].wire_child,
                  fds[static_cast<size_t>(self)].ctl_child, main);
}

}  // namespace

ProcessTransport::ProcessTransport(int num_agents, ChildMain child_main,
                                   Options opts)
    : AgentSupervisor(num_agents, opts) {
  PEM_CHECK(child_main != nullptr, "ProcessTransport needs a child entry point");
  const size_t n = static_cast<size_t>(num_agents);

  std::vector<ChildFds> fds(n);
  for (size_t i = 0; i < n; ++i) {
    MakeSocketPair(&fds[i].wire_parent, &fds[i].wire_child);
    MakeSocketPair(&fds[i].ctl_parent, &fds[i].ctl_child);
  }

  // Fork every child BEFORE starting the router thread: fork only
  // clones the calling thread, and forking a process that holds live
  // mutex-owning threads is how post-fork deadlocks are made.
  for (size_t i = 0; i < n; ++i) {
    const pid_t pid = fork();
    PEM_CHECK(pid >= 0, "process transport: fork failed");
    if (pid == 0) {
      RunForkedChild(static_cast<AgentId>(i), num_agents, fds, child_main);
    }
    AdoptChild(static_cast<AgentId>(i), pid, fds[i].wire_parent,
               fds[i].ctl_parent);
    close(fds[i].wire_child);
    close(fds[i].ctl_child);
    fds[i].wire_child = fds[i].ctl_child = -1;
  }

  StartRouter();
}

}  // namespace pem::net
