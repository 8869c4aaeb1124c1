#include "net/child_transport.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.h"

namespace pem::net {
namespace {

// Bound on frames queued ahead of the script: another process's input
// must not grow this one's memory without limit.  Reaching it means
// the wire and the deterministic replica have parted ways.
constexpr size_t kMaxQueuedFrames = size_t{1} << 16;

[[noreturn]] void ThrowFromSender(AgentId sender, const std::string& detail) {
  throw TransportError(
      TransportFault{sender, ErrorCode::kProtocolViolation, detail});
}

}  // namespace

// --- SocketStream -----------------------------------------------------

SocketStream::SocketStream(int num_agents, AgentId self, int fd)
    : self_(self), fd_(fd), early_(static_cast<size_t>(num_agents)) {}

SocketStream::~SocketStream() { CloseIfOpen(fd_); }

void SocketStream::Write(const Message& msg) {
  // One canonical frame to the parent router; broadcasts fan out
  // there, as they would at a switch.
  const std::vector<uint8_t> frame = EncodeFrame(msg);
  SendAllOrThrow(fd_, frame.data(), frame.size(), self_,
                 "socket stream: wire");
}

Message SocketStream::ReadFrame() {
  for (;;) {
    if (std::optional<Message> m = rx_.Next()) return std::move(*m);
    uint8_t buf[4096];
    const ssize_t n = recv(fd_, buf, sizeof buf, 0);
    if (n < 0) {
      PEM_CHECK(errno == EINTR, "socket stream: recv failed");
      continue;
    }
    if (n == 0) {
      throw TransportError(TransportFault{
          self_, ErrorCode::kProtocolViolation,
          "socket stream: agent " + std::to_string(self_) +
              " wire closed by the parent router mid-protocol"});
    }
    rx_.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
}

std::deque<Message>& SocketStream::QueueFrom(AgentId sender) {
  std::deque<Message>& mine = early_.at(static_cast<size_t>(sender));
  while (mine.empty()) {
    Message m = ReadFrame();
    if (m.from != sender && queued_ >= kMaxQueuedFrames) {
      ThrowFromSender(sender, "socket stream: agent " + std::to_string(self_) +
                                  " queued " + std::to_string(queued_) +
                                  " frames from other senders while waiting "
                                  "for one from sender " +
                                  std::to_string(sender) +
                                  " — wire and deterministic script diverged");
    }
    early_.at(static_cast<size_t>(m.from)).push_back(std::move(m));
    ++queued_;
  }
  return mine;
}

Message SocketStream::Next(AgentId sender) {
  std::deque<Message>& mine = QueueFrom(sender);
  Message m = std::move(mine.front());
  mine.pop_front();
  --queued_;
  return m;
}

Message SocketStream::Peek(AgentId sender) { return QueueFrom(sender).front(); }

void SocketStream::VerifyDrained() {
  // Pull in whatever has already arrived, so a leftover frame is named
  // by its sender.
  uint8_t buf[4096];
  ssize_t n;
  while ((n = recv(fd_, buf, sizeof buf, MSG_DONTWAIT)) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) rx_.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
  while (std::optional<Message> m = rx_.Next()) {
    early_.at(static_cast<size_t>(m->from)).push_back(std::move(*m));
  }
  for (size_t s = 0; s < early_.size(); ++s) {
    if (early_[s].empty()) continue;
    ThrowFromSender(static_cast<AgentId>(s),
                    "socket stream: agent " + std::to_string(self_) +
                        " never consumed " + std::to_string(early_[s].size()) +
                        " frame(s) from sender " + std::to_string(s) +
                        " — wire and deterministic script diverged");
  }
  if (rx_.buffered_bytes() != 0) {
    throw TransportError(TransportFault{
        self_, ErrorCode::kProtocolViolation,
        "socket stream: agent " + std::to_string(self_) +
            " holds a partial frame at teardown"});
  }
}

void SocketStream::WriteWireBytesForTest(std::span<const uint8_t> bytes) {
  SendAllOrThrow(fd_, bytes.data(), bytes.size(), self_,
                 "socket stream: wire");
}

// --- ChildTransport ---------------------------------------------------

ChildTransport::ChildTransport(int num_agents, AgentId self,
                               std::unique_ptr<ChildWire> wire)
    : shadow_(num_agents), self_(self), wire_(std::move(wire)) {
  PEM_CHECK(self >= 0 && self < num_agents,
            "child transport: self id out of range");
}

void ChildTransport::Send(Message msg) {
  // Own traffic is real; every send, own or not, advances the shadow.
  if (msg.from == self_) wire_->Write(msg);
  shadow_.Send(std::move(msg));
}

std::optional<Message> ChildTransport::Receive(AgentId agent) {
  std::optional<Message> expected = shadow_.Receive(agent);
  if (agent != self_ || !expected.has_value()) return expected;
  // The script names the sender whose frame this agent consumes next;
  // the medium keeps each sender's FIFO, so its next frame IS the one.
  if (!(wire_->Next(expected->from) == *expected)) {
    ThrowFromSender(expected->from,
                    "child transport: agent " + std::to_string(self_) +
                        " received a frame from sender " +
                        std::to_string(expected->from) + " that differs from "
                        "the script's frame of type " +
                        std::to_string(expected->type) +
                        " — wire and deterministic script diverged");
  }
  return expected;
}

std::optional<Message> ChildTransport::Peek(AgentId agent, AgentId sender) {
  if (agent != self_) return std::nullopt;
  return wire_->Peek(sender);
}

// --- child entry point ------------------------------------------------

void RunChild(AgentId self, int num_agents,
              const AgentSupervisor::MakeWire& make_wire, int wire_fd,
              int ctl_fd, const AgentSupervisor::ChildMain& child_main) {
  // Die with the parent: a crashed/killed orchestrator must never leave
  // agent processes behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  ControlChannel ctl(ctl_fd, self);
  int code = 127;
  try {
    ChildTransport transport(num_agents, self, make_wire(self, wire_fd));
    code = child_main(self, transport, ctl);
    transport.wire().VerifyDrained();
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

}  // namespace pem::net
