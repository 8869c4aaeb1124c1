#include "net/agent_supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/error.h"

namespace pem::net {
namespace {

// Sanity bound on control payloads (window reports are kilobytes).
constexpr uint32_t kMaxControlPayload = uint32_t{1} << 26;
// The router's reusable drain buffer: one recv of this size takes a
// whole burst of frames, so it crosses the router in a few syscalls.
constexpr size_t kRouterScratchBytes = 64 * 1024;

// How long the supervisor waits to reap a child it believes is dying,
// and how long a child may stay silent once ANOTHER agent has been
// convicted before that conviction is reported in its place.
constexpr int kGraceMs = 2000;
// How often ReadRecord looks for a newly latched fault while it waits.
constexpr int kFaultPollMs = 100;

ControlTimeout WatchdogTimeout(AgentId peer, int timeout_ms) {
  return ControlTimeout(TransportFault{
      peer, ErrorCode::kProtocolViolation,
      "control channel: watchdog timeout after " +
          std::to_string(timeout_ms) + "ms waiting on agent " +
          std::to_string(peer)});
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
  std::optional<ControlRecord> rec = TryRead(timeout_ms);
  if (!rec.has_value()) throw WatchdogTimeout(peer_, timeout_ms);
  return std::move(*rec);
}

std::optional<ControlRecord> ControlChannel::TryRead(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  ControlRecord rec;
  for (;;) {
    if (rxbuf_.size() >= 8) {
      rec.tag = LoadU32(rxbuf_.data());
      const uint32_t len = LoadU32(rxbuf_.data() + 4);
      if (len >= kMaxControlPayload) {
        throw TransportError(TransportFault{
            peer_, ErrorCode::kSerialization,
            "control channel: insane record length from agent " +
                std::to_string(peer_)});
      }
      const size_t need = 8 + len;
      if (rxbuf_.size() >= need) {
        rec.payload.assign(rxbuf_.begin() + 8,
                           rxbuf_.begin() + static_cast<ptrdiff_t>(need));
        // One recv may have coalesced several records; keep the rest
        // buffered for the next Read.
        rxbuf_.erase(rxbuf_.begin(),
                     rxbuf_.begin() + static_cast<ptrdiff_t>(need));
        return rec;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    const int pr = poll(&pfd, 1, wait_ms > 0 ? wait_ms : 1);
    if (pr < 0) {
      PEM_CHECK(errno == EINTR, "control channel: poll failed");
      continue;
    }
    if (pr == 0) continue;  // deadline check above fires next pass
    uint8_t chunk[4096];
    const ssize_t n = recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      throw TransportError(TransportFault{
          peer_, ErrorCode::kProtocolViolation,
          std::string("control channel: recv failed (") +
              std::strerror(errno) + ")"});
    }
    if (n == 0) {
      throw TransportError(TransportFault{
          peer_, ErrorCode::kProtocolViolation,
          "control channel: peer hung up (agent " + std::to_string(peer_) +
              " closed its end)"});
    }
    rxbuf_.insert(rxbuf_.end(), chunk, chunk + n);
  }
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
}

void AgentSupervisor::AdoptChild(AgentId agent, pid_t pid, int wire_fd,
                                 int ctl_fd) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "adopt: bad agent id");
  PEM_CHECK(!router_started_, "adopt: router already running");
  Child& c = children_[static_cast<size_t>(agent)];
  PEM_CHECK(c.wire_fd < 0 && c.ctl == nullptr, "adopt: agent already adopted");
  c.pid = pid;
  c.wire_fd = wire_fd;
  c.ctl = std::make_unique<ControlChannel>(ctl_fd, agent);
}

void AgentSupervisor::StartRouter() {
  PEM_CHECK(!router_started_, "router already started");
  for (const Child& c : children_) {
    PEM_CHECK(c.wire_fd >= 0 && c.ctl != nullptr,
              "router start: an agent was never adopted");
  }
  // Opened after any forking so no child inherits it.
  wake_.Open();
  for (Child& c : children_) SetNonBlocking(c.wire_fd);
  router_started_ = true;
  router_ = std::thread([this] { RouterLoop(); });
}

void AgentSupervisor::WakeRouter() { wake_.Wake(); }

void AgentSupervisor::RecordFault(AgentId agent, std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_.has_value()) return;  // first fault wins
  fault_ = TransportFault{agent, ErrorCode::kProtocolViolation,
                          std::move(detail)};
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
  PendingBuf& p = pending_[static_cast<size_t>(dest)];
  if (closed_[static_cast<size_t>(dest)]) {
    p.Clear();
    return;
  }
  if (FlushPendingBuf(children_[static_cast<size_t>(dest)].wire_fd, p) ==
      FlushResult::kPeerClosed) {
    // Routed frames with nowhere to go: a child that exited cleanly
    // has consumed everything addressed to it, so an EPIPE with data
    // pending is a crash unless Done already arrived.
    bool clean;
    {
      std::lock_guard<std::mutex> lock(mu_);
      clean = children_[static_cast<size_t>(dest)].done;
      children_[static_cast<size_t>(dest)].wire_eof = true;
    }
    if (!clean) {
      RecordFault(dest, "agent supervisor: agent " + std::to_string(dest) +
                            " wire write failed with frames pending — "
                            "peer gone?");
    }
    closed_[static_cast<size_t>(dest)] = true;
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
          if (r < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            RecordFault(a, "agent supervisor: agent " + std::to_string(a) +
                               " wire read failed (" + std::strerror(errno) +
                               ")");
            closed_[i] = true;
            break;
          }
          if (r == 0) {
            // Hangup.  The router cannot judge crash vs. clean exit
            // here: a child closes its wire the instant it _exits after
            // writing Done, usually before the main thread's ReadRecord
            // loop has marked it done.  Record the bare fact; fault()
            // and the control plane judge it against `done` when asked.
            {
              std::lock_guard<std::mutex> lock(mu_);
              children_[i].wire_eof = true;
            }
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
  TransportFault fault{agent, ErrorCode::kProtocolViolation,
                       "agent supervisor: agent " + std::to_string(agent) +
                           " child process " + why};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!fault_.has_value()) fault_ = fault;
  }
  throw TransportError(std::move(fault));
}

ControlRecord AgentSupervisor::ReadRecord(AgentId agent) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  Child& c = children_[static_cast<size_t>(agent)];
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.watchdog_ms);
  // Once ANOTHER agent is convicted (by the router, or by crashing),
  // this one may be silent only because it waits on frames it lost.
  // It gets kGraceMs from then to report; after that the conviction
  // (the first cause, as RecordFault rules) is the report, not this
  // agent's watchdog timeout.
  std::optional<Clock::time_point> grace_end;
  std::optional<ControlRecord> next;
  while (!next.has_value()) {
    const auto now = Clock::now();
    const std::optional<TransportFault> convicted = LatchedFaultOfOther(agent);
    if (convicted.has_value() && !grace_end.has_value()) {
      grace_end = now + std::chrono::milliseconds(kGraceMs);
    }
    if (grace_end.has_value() && now >= *grace_end) {
      throw TransportError(*convicted);
    }
    if (now >= deadline) {
      // Watchdog expiry with the channel still open: the peer is alive
      // but silent.  A local child might nonetheless have died without
      // the hangup reaching us yet — say how if so; otherwise surface
      // the timeout itself (the destructor will kill and reap local
      // stragglers; an external agent being slow is not a disconnect).
      if (c.pid > 0 && ReapChild(agent, kGraceMs)) {
        ThrowChildFailure(agent, DescribeWaitStatus(c.wait_status) +
                                     " before reporting");
      }
      throw WatchdogTimeout(agent, opts_.watchdog_ms);
    }
    const auto until =
        std::min({deadline, grace_end.value_or(deadline),
                  now + std::chrono::milliseconds(kFaultPollMs)});
    const int slice_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
            .count());
    try {
      next = c.ctl->TryRead(std::max(slice_ms, 1));
    } catch (const TransportError&) {
      // Hangup or recv failure: the peer is gone.  If it was a local
      // child, say exactly how it died; an external agent has no
      // process to interrogate — its hangup IS the disconnect.
      if (c.pid <= 0) {
        ThrowChildFailure(agent, "disconnected before reporting");
      }
      if (ReapChild(agent, kGraceMs)) {
        ThrowChildFailure(agent, DescribeWaitStatus(c.wait_status) +
                                     " before reporting");
      }
      throw;
    }
  }
  ControlRecord rec = std::move(*next);
  if (rec.tag == kCtlRepError) {
    (void)ReapChild(agent, kGraceMs);
    ThrowChildFailure(
        agent, "reported: " + std::string(rec.payload.begin(),
                                          rec.payload.end()));
  }
  if (rec.tag == kCtlRepDone) {
    std::lock_guard<std::mutex> lock(mu_);
    c.done = true;
  }
  return rec;
}

bool AgentSupervisor::ReapChild(AgentId agent, int timeout_ms) {
  Child& c = children_[static_cast<size_t>(agent)];
  if (c.reaped) return true;
  if (c.pid <= 0) {
    // Externally launched: no local process, nothing to collect.
    c.reaped = true;
    c.wait_status = 0;
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = waitpid(c.pid, &status, WNOHANG);
    if (r == c.pid) {
      c.reaped = true;
      c.wait_status = status;
      return true;
    }
    if (r < 0) {
      // ECHILD: someone else collected it; treat as reaped-clean.
      c.reaped = true;
      c.wait_status = 0;
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    usleep(2000);
  }
}

void AgentSupervisor::KillAndReapAll() {
  for (AgentId a = 0; a < num_agents(); ++a) {
    Child& c = children_[static_cast<size_t>(a)];
    if (c.reaped || c.pid <= 0) continue;
    kill(c.pid, SIGKILL);
  }
  for (AgentId a = 0; a < num_agents(); ++a) {
    Child& c = children_[static_cast<size_t>(a)];
    if (c.reaped || c.pid <= 0) continue;
    int status = 0;
    // SIGKILL cannot be caught; the blocking wait returns promptly.
    if (waitpid(c.pid, &status, 0) == c.pid) c.wait_status = status;
    c.reaped = true;
  }
}

void AgentSupervisor::StopRouter() {
  if (router_stopped_ || !router_started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  WakeRouter();
  if (router_.joinable()) router_.join();
  router_stopped_ = true;
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
  for (AgentId a = 0; a < num_agents(); ++a) {
    Child& c = children_[static_cast<size_t>(a)];
    if (!ReapChild(a, opts_.watchdog_ms)) {
      ThrowChildFailure(a, "did not exit within the watchdog after Done");
    }
    if (c.pid > 0 &&
        (!WIFEXITED(c.wait_status) || WEXITSTATUS(c.wait_status) != 0)) {
      ThrowChildFailure(a, DescribeWaitStatus(c.wait_status));
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

double AgentSupervisor::AverageBytesPerAgent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.AverageBytesPerAgent();
}

void AgentSupervisor::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_.Reset();
}

void AgentSupervisor::SetObserver(Transport::Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

std::optional<TransportFault> AgentSupervisor::LatchedFaultOfOther(
    AgentId agent) {
  // A crashed peer is a conviction too.  Its exit is judged by a
  // non-blocking reap of every other local child not yet Done, not by
  // its wire: shm children never cross the router, so their crashes
  // leave no hangup to see.  A child that exits cleanly may do so before
  // the main thread reads its Done, so only an unclean exit convicts.
  for (AgentId a = 0; a < num_agents(); ++a) {
    Child& c = children_[static_cast<size_t>(a)];
    if (a == agent || c.pid <= 0) continue;
    bool done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done = c.done;
    }
    if (done || !ReapChild(a, /*timeout_ms=*/0)) continue;
    if (WIFEXITED(c.wait_status) && WEXITSTATUS(c.wait_status) == 0) continue;
    RecordFault(a, "agent supervisor: agent " + std::to_string(a) +
                       " child process " + DescribeWaitStatus(c.wait_status) +
                       " before reporting");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_.has_value() && fault_->agent != agent) return fault_;
  return std::nullopt;
}

std::optional<TransportFault> AgentSupervisor::fault() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_.has_value()) return fault_;
  // A wire hangup is judged lazily against `done`: the router sees EOF
  // even on a clean exit (the child closes its fds the instant it
  // _exits after writing Done, typically before the main thread has
  // read the Done record), so only an EOF with no Done is a crash.
  for (size_t a = 0; a < children_.size(); ++a) {
    const Child& c = children_[a];
    if (c.wire_eof && !c.done) {
      return TransportFault{
          static_cast<AgentId>(a), ErrorCode::kProtocolViolation,
          "agent supervisor: agent " + std::to_string(a) +
              " hung up its wire before reporting Done (peer crashed?)"};
    }
  }
  return std::nullopt;
}

bool AgentSupervisor::reaped(AgentId agent) const {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  const Child& c = children_[static_cast<size_t>(agent)];
  return c.reaped || c.pid <= 0;
}

void AgentSupervisor::SeverWireForTest(AgentId agent) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  // shutdown(2), not close(2): the fd number stays allocated, so the
  // router thread racing a read or write sees EOF/EPIPE rather than a
  // recycled descriptor.
  shutdown(children_[static_cast<size_t>(agent)].wire_fd, SHUT_RDWR);
}

}  // namespace pem::net
