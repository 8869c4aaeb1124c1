#include "net/agent_supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>

#include "net/child_transport.h"
#include "util/error.h"

namespace pem::net {
namespace {

using Clock = std::chrono::steady_clock;

// Sanity bound on control payloads (window reports are kilobytes).
constexpr uint32_t kMaxControlPayload = uint32_t{1} << 26;
// The router's reusable drain buffer: one recv of this size takes a
// whole burst of frames, so it crosses the router in a few syscalls.
constexpr size_t kRouterScratchBytes = 64 * 1024;

// How long a child may stay silent once ANOTHER agent has been
// convicted before that conviction is reported in its place, and how
// long an ended child's last control bytes may take to arrive.
constexpr int kGraceMs = 2000;

ControlTimeout WatchdogTimeout(AgentId peer, int timeout_ms) {
  return ControlTimeout(TransportFault{
      peer, ErrorCode::kProtocolViolation,
      "control channel: watchdog timeout after " +
          std::to_string(timeout_ms) + "ms waiting on agent " +
          std::to_string(peer)});
}

// Milliseconds left until `deadline`, rounded up; 0 once it has passed.
int MsUntil(Clock::time_point deadline) {
  const int64_t left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  return static_cast<int>(std::clamp<int64_t>(left, 0, INT_MAX));
}

bool PollIn(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int r = poll(&pfd, 1, timeout_ms);
  PEM_CHECK(r >= 0 || errno == EINTR, "control channel: poll failed");
  return r > 0;
}

std::string ChildFailure(AgentId agent, const std::string& why) {
  return "agent supervisor: agent " + std::to_string(agent) +
         " child process " + why;
}

// `code` and `status` as waitid reports them in si_code and si_status.
std::string DescribeExit(int code, int status) {
  return (code == CLD_EXITED ? "exited with status " : "killed by signal ") +
         std::to_string(status);
}

}  // namespace

// --- ControlChannel ---------------------------------------------------

ControlChannel::ControlChannel(int fd, AgentId peer) : fd_(fd), peer_(peer) {
  PEM_CHECK(fd >= 0, "control channel: bad descriptor");
}

ControlChannel::~ControlChannel() { CloseIfOpen(fd_); }

void ControlChannel::Write(uint32_t tag, std::span<const uint8_t> payload) {
  PEM_CHECK(payload.size() < kMaxControlPayload, "control record too large");
  uint8_t header[8];
  StoreU32(header, tag);
  StoreU32(header + 4, static_cast<uint32_t>(payload.size()));
  SendAllOrThrow(fd_, header, sizeof header, peer_, "control channel");
  if (!payload.empty()) {
    SendAllOrThrow(fd_, payload.data(), payload.size(), peer_,
                   "control channel");
  }
}

ControlRecord ControlChannel::Read(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (std::optional<ControlRecord> rec = Pop()) return std::move(*rec);
    if (hung_up_) {
      throw TransportError(TransportFault{
          peer_, ErrorCode::kProtocolViolation,
          "control channel: peer hung up (agent " + std::to_string(peer_) +
              " closed its end)"});
    }
    const int wait_ms = MsUntil(deadline);
    if (wait_ms == 0) throw WatchdogTimeout(peer_, timeout_ms);
    if (PollIn(fd_, wait_ms)) Fill();
  }
}

std::optional<ControlRecord> ControlChannel::Pop() {
  if (rxbuf_.size() < 8) return std::nullopt;
  const uint32_t len = LoadU32(rxbuf_.data() + 4);
  if (len >= kMaxControlPayload) {
    throw TransportError(TransportFault{
        peer_, ErrorCode::kSerialization,
        "control channel: insane record length from agent " +
            std::to_string(peer_)});
  }
  if (rxbuf_.size() < 8 + size_t{len}) return std::nullopt;
  const auto end = rxbuf_.begin() + 8 + static_cast<ptrdiff_t>(len);
  ControlRecord rec{LoadU32(rxbuf_.data()), {rxbuf_.begin() + 8, end}};
  // One recv may have coalesced several records; keep the rest
  // buffered for the next Pop.
  rxbuf_.erase(rxbuf_.begin(), end);
  return rec;
}

void ControlChannel::Fill() {
  uint8_t chunk[4096];
  const ssize_t n = recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
  if (n > 0) {
    rxbuf_.insert(rxbuf_.end(), chunk, chunk + n);
  } else if (n == 0 ||
             (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    hung_up_ = true;
  }
}

std::optional<std::vector<uint8_t>> ControlChannel::Buffered(
    uint32_t tag) const {
  for (size_t off = 0; off + 8 <= rxbuf_.size();) {
    const size_t end = off + 8 + LoadU32(rxbuf_.data() + off + 4);
    if (end > rxbuf_.size()) break;
    if (LoadU32(rxbuf_.data() + off) == tag) {
      return std::vector<uint8_t>(
          rxbuf_.begin() + static_cast<ptrdiff_t>(off + 8),
          rxbuf_.begin() + static_cast<ptrdiff_t>(end));
    }
    off = end;
  }
  return std::nullopt;
}

// --- AgentSupervisor --------------------------------------------------

AgentSupervisor::AgentSupervisor(int num_agents, Options opts)
    : opts_(opts),
      ledger_(num_agents > 0 ? static_cast<size_t>(num_agents) : 0) {
  PEM_CHECK(num_agents > 0, "agent supervisor needs at least one agent");
  const size_t n = static_cast<size_t>(num_agents);
  children_.resize(n);
  rx_.resize(n);
  pending_.resize(n);
  closed_.assign(n, false);
}

AgentSupervisor::~AgentSupervisor() {
  KillAndReapAll();
  StopRouter();
  for (Child& c : children_) {
    CloseIfOpen(c.wire_fd);
    c.wire_fd = -1;
    c.ctl.reset();
  }
  wake_.Close();
  fault_wake_.Close();
}

void AgentSupervisor::Launch(const ChildMain& child_main, bool routed,
                             const MakeWire& make_wire) {
  PEM_CHECK(child_main != nullptr, "agent supervisor: no child entry point");
  const int n = num_agents();
  struct Ends {
    int wire_parent = -1, wire_child = -1, ctl_parent = -1, ctl_child = -1;
  };
  std::vector<Ends> ends(static_cast<size_t>(n));
  for (Ends& e : ends) {
    MakeSocketPair(&e.ctl_parent, &e.ctl_child);
    if (routed) MakeSocketPair(&e.wire_parent, &e.wire_child);
  }

  // Fork every child before any thread exists: fork only clones the
  // calling thread, and forking a process that holds live mutex-owning
  // threads is how post-fork deadlocks are made.
  for (AgentId i = 0; i < n; ++i) {
    Ends& own = ends[static_cast<size_t>(i)];
    const pid_t pid = fork();
    PEM_CHECK(pid >= 0, "agent supervisor: fork failed");
    if (pid == 0) {
      // Keep EXACTLY this agent's child ends; the rest are not its own.
      for (const Ends& e : ends) {
        CloseIfOpen(e.wire_parent);
        CloseIfOpen(e.ctl_parent);
        if (&e == &own) continue;
        CloseIfOpen(e.wire_child);
        CloseIfOpen(e.ctl_child);
      }
      RunChild(i, n, make_wire, own.wire_child, own.ctl_child, child_main);
    }
    Child& c = children_[static_cast<size_t>(i)];
    c.pid = pid;
    c.wire_fd = own.wire_parent;
    c.ctl = std::make_unique<ControlChannel>(own.ctl_parent, i);
    CloseIfOpen(own.wire_child);
    close(own.ctl_child);
    own.wire_child = own.ctl_child = -1;
  }

  // Opened after the last fork, so no child inherits them.
  fault_wake_.Open();
  for (AgentId a = 0; a < n; ++a) {
    Child& c = children_[static_cast<size_t>(a)];
    // The raw syscall: some glibc releases ship sys/pidfd.h without C
    // linkage.
    c.pidfd = static_cast<int>(syscall(SYS_pidfd_open, c.pid, 0));
    if (c.pidfd < 0) {
      throw TransportError(TransportFault{
          a, ErrorCode::kProtocolViolation,
          "agent supervisor: pidfd_open for agent " + std::to_string(a) +
              " failed (" + std::strerror(errno) +
              "); Linux >= 5.4 is required"});
    }
  }
  if (!routed) return;
  wake_.Open();
  for (Child& c : children_) SetNonBlocking(c.wire_fd);
  router_ = std::thread([this] { RouterLoop(); });
}

void AgentSupervisor::RecordFault(AgentId agent, std::string detail) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault_.has_value()) return;  // first fault wins
    fault_ = TransportFault{agent, ErrorCode::kProtocolViolation,
                            std::move(detail)};
  }
  fault_wake_.Wake();
}

void AgentSupervisor::AccountDeliveredCopy(const Message& copy) {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_.Account(copy.from, copy.to, copy.payload.size());
  if (observer_) observer_(copy);
}

bool AgentSupervisor::ConvictWire(AgentId owner, const std::string& what) {
  RecordFault(owner, "agent supervisor: agent " + std::to_string(owner) +
                         " wire carried " + what);
  closed_[static_cast<size_t>(owner)] = true;
  return false;
}

bool AgentSupervisor::RouteBufferedFrames(AgentId owner) {
  const int n = num_agents();
  FrameDecoder& rx = rx_[static_cast<size_t>(owner)];
  Message frame;
  for (;;) {
    const FrameDecodeStatus status = rx.Pop(frame);
    if (status == FrameDecodeStatus::kNeedMore) return true;
    if (status == FrameDecodeStatus::kCorrupt) {
      return ConvictWire(owner, "a corrupt frame (bad header checksum or "
                                "length prefix)");
    }
    if (frame.from != owner) {
      return ConvictWire(owner, "a frame with forged sender id " +
                                    std::to_string(frame.from));
    }
    if (frame.to != kBroadcast && (frame.to < 0 || frame.to >= n)) {
      return ConvictWire(owner, "a frame for out-of-range recipient " +
                                    std::to_string(frame.to));
    }
    RouteFrame(frame);
  }
}

void AgentSupervisor::RouteFrame(const Message& frame) {
  const int n = num_agents();
  if (frame.to == kBroadcast) {
    for (AgentId to = 0; to < n; ++to) {
      if (to == frame.from) continue;
      Message copy = frame;
      copy.to = to;
      AccountDeliveredCopy(copy);
      AppendFrame(pending_[static_cast<size_t>(to)].bytes, copy);
    }
    return;
  }
  AccountDeliveredCopy(frame);
  AppendFrame(pending_[static_cast<size_t>(frame.to)].bytes, frame);
}

void AgentSupervisor::FlushPending(AgentId dest) {
  const size_t d = static_cast<size_t>(dest);
  // A wire that hung up takes nothing more; whether its owner crashed is
  // for its pidfd to say.
  if (closed_[d] || FlushPendingBuf(children_[d].wire_fd, pending_[d]) ==
                        FlushResult::kPeerClosed) {
    pending_[d].Clear();
    closed_[d] = true;
  }
}

void AgentSupervisor::RouterLoop() {
  const int n = num_agents();
  // Persistent epoll set: the wire fds are registered once (EPOLLIN,
  // level-triggered) instead of a poll set rebuilt every iteration;
  // EPOLLOUT is armed per destination only while its pending queue is
  // nonempty, and a hung-up wire is deleted from the set for good.
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  PEM_CHECK(ep >= 0, "agent supervisor: epoll_create1 failed");
  const FdGuard ep_guard{ep};
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<uint64_t>(n);  // sentinel: the wake pipe
  PEM_CHECK(epoll_ctl(ep, EPOLL_CTL_ADD, wake_.recv_fd, &ev) == 0,
            "agent supervisor: epoll_ctl(wake) failed");
  for (AgentId a = 0; a < n; ++a) {
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<uint64_t>(a);
    PEM_CHECK(epoll_ctl(ep, EPOLL_CTL_ADD,
                        children_[static_cast<size_t>(a)].wire_fd, &ev) == 0,
              "agent supervisor: epoll_ctl(wire) failed");
  }
  std::vector<bool> registered(static_cast<size_t>(n), true);
  std::vector<bool> out_armed(static_cast<size_t>(n), false);
  std::vector<uint8_t> scratch(kRouterScratchBytes);
  std::vector<epoll_event> events(static_cast<size_t>(n) + 1);

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
    }
    // Reconcile the interest set with this iteration's state.
    for (AgentId a = 0; a < n; ++a) {
      const size_t i = static_cast<size_t>(a);
      if (!registered[i]) continue;
      if (closed_[i]) {
        (void)epoll_ctl(ep, EPOLL_CTL_DEL, children_[i].wire_fd, nullptr);
        registered[i] = false;
        continue;
      }
      const bool want_out = !pending_[i].empty();
      if (want_out != out_armed[i]) {
        ev.events = EPOLLIN;
        if (want_out) ev.events |= EPOLLOUT;
        ev.data.u64 = static_cast<uint64_t>(a);
        PEM_CHECK(epoll_ctl(ep, EPOLL_CTL_MOD, children_[i].wire_fd, &ev) == 0,
                  "agent supervisor: epoll_ctl(mod) failed");
        out_armed[i] = want_out;
      }
    }
    const int ne =
        epoll_wait(ep, events.data(), static_cast<int>(events.size()), -1);
    if (ne < 0) {
      PEM_CHECK(errno == EINTR, "agent supervisor: epoll_wait failed");
      continue;
    }
    for (int k = 0; k < ne; ++k) {
      const uint64_t tag = events[static_cast<size_t>(k)].data.u64;
      const uint32_t revents = events[static_cast<size_t>(k)].events;
      if (tag == static_cast<uint64_t>(n)) {
        wake_.Drain();
        continue;
      }
      const AgentId a = static_cast<AgentId>(tag);
      const size_t i = static_cast<size_t>(a);
      if (closed_[i]) continue;  // latched earlier in this same batch
      if (revents & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        // Batched drain: pull everything this sender has written into
        // the reusable scratch, then decode and route every complete
        // frame; same-destination frames coalesce in its PendingBuf
        // and leave in one send.
        for (;;) {
          const ssize_t r = recv(children_[i].wire_fd, scratch.data(),
                                 scratch.size(), MSG_DONTWAIT);
          if (r < 0 && errno == EINTR) continue;
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r <= 0) {
            // Hangup or a failed read: the wire carries nothing more.
            // Whether its owner crashed is for its pidfd to say.
            closed_[i] = true;
            break;
          }
          rx_[i].Feed(std::span<const uint8_t>(scratch.data(),
                                               static_cast<size_t>(r)));
          if (!RouteBufferedFrames(a)) break;
        }
      }
    }
    for (AgentId d = 0; d < n; ++d) {
      if (!pending_[static_cast<size_t>(d)].empty()) FlushPending(d);
    }
  }
}

void AgentSupervisor::Command(AgentId agent, uint32_t tag,
                              std::span<const uint8_t> payload) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  children_[static_cast<size_t>(agent)].ctl->Write(tag, payload);
}

void AgentSupervisor::CommandAll(uint32_t tag,
                                 std::span<const uint8_t> payload) {
  for (AgentId a = 0; a < num_agents(); ++a) Command(a, tag, payload);
}

void AgentSupervisor::ThrowChildFailure(AgentId agent,
                                        const std::string& why) {
  const std::string detail = ChildFailure(agent, why);
  RecordFault(agent, detail);
  throw TransportError(
      TransportFault{agent, ErrorCode::kProtocolViolation, detail});
}

ControlRecord AgentSupervisor::ReadRecord(AgentId agent) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  Child& c = children_[static_cast<size_t>(agent)];
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.watchdog_ms);
  // Once ANOTHER agent is convicted (by the router, or by ending badly),
  // this one may be silent only because it waits on frames it lost.  It
  // gets kGraceMs from then to report; after that the conviction (the
  // first cause, as RecordFault rules) is the report, not this agent's
  // watchdog timeout.
  std::optional<Clock::time_point> grace_end;
  for (;;) {
    if (std::optional<ControlRecord> rec = c.ctl->Pop()) {
      if (rec->tag == kCtlRepError) {
        ThrowChildFailure(agent, "reported: " + std::string(
                                                    rec->payload.begin(),
                                                    rec->payload.end()));
      }
      if (rec->tag == kCtlRepDone) c.done = true;
      return std::move(*rec);
    }
    if (c.reaped) {
      ThrowChildFailure(agent, DescribeExit(c.exit_code, c.exit_status) +
                                   " before reporting");
    }
    std::optional<TransportFault> convicted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fault_.has_value() && fault_->agent != agent) convicted = fault_;
    }
    const auto now = Clock::now();
    if (convicted.has_value() && !grace_end.has_value()) {
      grace_end = now + std::chrono::milliseconds(kGraceMs);
    }
    if (grace_end.has_value() && now >= *grace_end) {
      throw TransportError(*convicted);
    }
    if (now >= deadline) throw WatchdogTimeout(agent, opts_.watchdog_ms);
    Await(agent, std::min(deadline, grace_end.value_or(deadline)));
  }
}

void AgentSupervisor::Await(AgentId reading, Clock::time_point until) {
  // Slot a is child a's pidfd, then the reading channel, then the fault
  // latch's wake; poll skips a slot whose fd is -1.
  const size_t n = children_.size();
  std::vector<pollfd> fds(n + 2, pollfd{-1, POLLIN, 0});
  for (size_t a = 0; a < n; ++a) fds[a].fd = children_[a].pidfd;
  ControlChannel* ctl =
      reading >= 0 ? children_[static_cast<size_t>(reading)].ctl.get()
                   : nullptr;
  if (ctl != nullptr && !ctl->hung_up()) fds[n].fd = ctl->fd();
  {
    // A latched fault leaves the wake readable for good: skip it then.
    std::lock_guard<std::mutex> lock(mu_);
    if (!fault_.has_value()) fds[n + 1].fd = fault_wake_.recv_fd;
  }
  const int r = poll(fds.data(), fds.size(), MsUntil(until));
  PEM_CHECK(r >= 0 || errno == EINTR, "agent supervisor: poll failed");
  if (r <= 0) return;
  if (ctl != nullptr && fds[n].revents != 0) ctl->Fill();
  for (size_t a = 0; a < n; ++a) {
    if (fds[a].revents != 0) Collect(static_cast<AgentId>(a));
  }
}

void AgentSupervisor::Collect(AgentId agent) {
  Child& c = children_[static_cast<size_t>(agent)];
  siginfo_t info{};
  if (waitid(P_PIDFD, static_cast<id_t>(c.pidfd), &info, WEXITED | WNOHANG) !=
      0) {
    // Collected elsewhere: nothing is known against it.
    info.si_code = CLD_EXITED;
    info.si_status = 0;
  } else if (info.si_pid == 0) {
    return;  // still running
  }
  c.reaped = true;
  c.exit_code = info.si_code;
  c.exit_status = info.si_status;
  close(c.pidfd);
  c.pidfd = -1;
  // The child's last records precede its exit on the channel.
  const auto deadline = Clock::now() + std::chrono::milliseconds(kGraceMs);
  while (!c.ctl->hung_up() && PollIn(c.ctl->fd(), MsUntil(deadline))) {
    c.ctl->Fill();
  }
  if (std::optional<std::string> why = ExitVerdict(agent)) {
    RecordFault(agent, ChildFailure(agent, *why));
  }
}

std::optional<std::string> AgentSupervisor::ExitVerdict(AgentId agent) const {
  const Child& c = children_[static_cast<size_t>(agent)];
  if (std::optional<std::vector<uint8_t>> error =
          c.ctl->Buffered(kCtlRepError)) {
    return "reported: " + std::string(error->begin(), error->end());
  }
  if (!c.reaped || (c.exit_code == CLD_EXITED && c.exit_status == 0)) {
    return std::nullopt;
  }
  const bool before_done = !c.done && !c.ctl->Buffered(kCtlRepDone);
  return DescribeExit(c.exit_code, c.exit_status) +
         (before_done ? " before reporting" : "");
}

void AgentSupervisor::KillAndReapAll() {
  for (const Child& c : children_) {
    if (c.pid > 0 && !c.reaped) kill(c.pid, SIGKILL);
  }
  for (Child& c : children_) {
    // SIGKILL cannot be caught; the blocking wait returns promptly.
    if (c.pid > 0 && !c.reaped) (void)waitpid(c.pid, nullptr, 0);
    c.reaped = true;
    CloseIfOpen(c.pidfd);
    c.pidfd = -1;
  }
}

void AgentSupervisor::StopRouter() {
  if (!router_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.Wake();
  router_.join();
}

void AgentSupervisor::Shutdown() {
  if (finished_) return;
  CommandAll(kCtlCmdShutdown);
  for (AgentId a = 0; a < num_agents(); ++a) {
    const ControlRecord rec = ReadRecord(a);
    if (rec.tag != kCtlRepDone) {
      ThrowChildFailure(a, "sent record tag " + std::to_string(rec.tag) +
                               " where Done was expected");
    }
  }
  // Each child exits after its Done, and that exit is judged like any
  // other: an Error it wrote after Done (a failed drain check, say) is
  // the report, in its own words.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.watchdog_ms);
  for (AgentId a = 0; a < num_agents(); ++a) {
    while (!reaped(a)) {
      if (Clock::now() >= deadline) {
        ThrowChildFailure(a, "did not exit within the watchdog after Done");
      }
      Await(-1, deadline);
    }
    if (std::optional<std::string> why = ExitVerdict(a)) {
      ThrowChildFailure(a, *why);
    }
  }
  StopRouter();
  finished_ = true;
}

TrafficStats AgentSupervisor::stats(AgentId agent) const {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.stats(agent);
}

uint64_t AgentSupervisor::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.total_bytes;
}

uint64_t AgentSupervisor::total_messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.total_messages;
}

void AgentSupervisor::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_.Reset();
}

void AgentSupervisor::SetObserver(Transport::Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

std::optional<TransportFault> AgentSupervisor::fault() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_;
}

bool AgentSupervisor::reaped(AgentId agent) const {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  return children_[static_cast<size_t>(agent)].reaped;
}

void AgentSupervisor::SeverWireForTest(AgentId agent) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  // shutdown(2), not close(2): the fd number stays allocated, so the
  // router thread racing a read or write sees EOF/EPIPE rather than a
  // recycled descriptor.
  shutdown(children_[static_cast<size_t>(agent)].wire_fd, SHUT_RDWR);
}

}  // namespace pem::net
