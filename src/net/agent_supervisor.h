// Parent-side supervision of out-of-process agents — the control
// plane every forked/remote backend shares.
//
// The parent-side machinery — the child table, the relay router, the
// control plane, the watchdog, the reaping — never looks at HOW a
// child's descriptors came to be (inherited socketpair ends in
// net/process_transport.h, accepted TCP connections in
// net/tcp_transport.h, a pre-fork shared mapping in
// net/shm_transport.h), so it lives here and the concrete backends
// only differ in their constructors.
//
// This header is deliberately free of any concrete transport: protocol
// code that drives children (protocol/agent_driver.cpp) depends on the
// supervision contract — ControlChannel records, AgentSupervisor
// commands, the wire ledger — not on which kernel primitive carries
// the frames.  pem_lint's layering rule enforces exactly that split.
//
// Child lifecycle.  Children are commanded over the control channel
// (length-prefixed records) and report results the same way.  A child
// that exits cleanly writes a Done record first; one that throws writes
// an Error record; one that crashes is detected by control-channel
// hangup, reaped with waitpid, and surfaced as a structured
// TransportError naming the agent and its exit status or signal —
// within the watchdog timeout, never as a silent hang.  The destructor
// SIGKILLs and reaps whatever is still running, so no orphans or
// zombies survive a failed run, and every inherited descriptor is
// closed (asserted by the fd-stability lifecycle tests).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/relay_util.h"
#include "net/transport.h"

namespace pem::net {

// --- control plane ----------------------------------------------------

// Record tags on the per-child control channel.  Commands flow parent
// -> child, reports child -> parent.
//
// Report keying: the channel is FIFO, so a child's kCtlRepWindow
// records answer its kCtlCmdRun commands strictly in order — but the
// parent may pipeline several Run commands per child (batched
// multi-window scheduling), and different children progress through
// the batch at different rates.  Each report therefore ECHOES the
// window id it answers (protocol::WindowRecord::window); the parent
// keys collection on the echo and rejects any mismatch as a stale
// report, instead of trusting queue position alone.
inline constexpr uint32_t kCtlCmdRun = 1;       // payload: command-defined
inline constexpr uint32_t kCtlCmdShutdown = 2;  // child replies Done + exits
inline constexpr uint32_t kCtlRepWindow = 3;    // payload: a window report
inline constexpr uint32_t kCtlRepDone = 4;      // clean goodbye
inline constexpr uint32_t kCtlRepError = 5;     // payload: utf-8 what()

struct ControlRecord {
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

// Thrown by ControlChannel::Read when the watchdog deadline expires
// with the peer still connected — a distinct type from the hangup /
// recv-failure TransportError so the supervisor can tell "alive but
// slow" (surface the timeout) from "gone" (report a disconnect).  An
// externally launched agent on a distant host makes the difference
// matter: a slow window report is not a dead peer.
class ControlTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

// Length-prefixed records ([u32 tag | u32 len | bytes]) over one end of
// a stream socket (a socketpair end or a connected TCP socket).  Owns
// the descriptor.  Reads are deadline-bounded and surface hangup /
// timeout as structured TransportError (never a silent nullopt) — this
// is how a crashed child becomes a report instead of a 6-hour CI hang.
class ControlChannel {
 public:
  // `peer` names the agent on the other end (for error messages).
  ControlChannel(int fd, AgentId peer);
  ~ControlChannel();
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  void Write(uint32_t tag, std::span<const uint8_t> payload = {});
  ControlRecord Read(int timeout_ms);
  // Read without the timeout throw: nullopt when `timeout_ms` passes
  // with no whole record (hangups still throw).
  std::optional<ControlRecord> TryRead(int timeout_ms);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  AgentId peer_ = -1;
  // Receive accumulator: one recv may coalesce several records (e.g. a
  // child's Done immediately followed by an Error); bytes beyond the
  // record being returned stay buffered for the next Read.
  std::vector<uint8_t> rxbuf_;
};

// --- parent side ------------------------------------------------------

// Supervises one out-of-process child per agent: routes their frames
// through the relay thread, keeps the literal-wire-bytes ledger, and
// runs the watchdog-bounded control plane.  Not a Transport: the parent
// is an operator, not an agent — it cannot Send or Receive, only
// command children, collect their reports, and read the wire ledger.
//
// Concrete backends (ProcessTransport, TcpTransport, ShmTransport)
// differ only in how each child comes to exist and how its descriptors
// reach the parent; their constructors fill the child table via
// AdoptChild and then StartRouter.
class AgentSupervisor {
 public:
  // Runs a child's agent.  Return value becomes the child's exit code.
  // Everything the callable captures is fork-copied, so capturing the
  // parent's protocol state by reference is the intended way to hand
  // each child its private snapshot.  On kCtlCmdShutdown the child must
  // Write(kCtlRepDone) and return 0 (AgentDriver::Serve implements this
  // contract).
  using ChildMain =
      std::function<int(AgentId self, Transport& wire, ControlChannel& ctl)>;

  struct Options {
    // Upper bound on any single control-plane wait (a child record, an
    // exit).  A deadlocked or runaway child fails the run with a
    // structured error after this long, instead of hanging until an
    // outer ctest TIMEOUT / CI runner kill.
    int watchdog_ms = 120'000;
    // Reusable router drain buffer: one recv of this size replaces the
    // old per-iteration 4-16 KiB stack nibbles, so a burst of frames
    // crosses the router in a handful of syscalls.
    size_t router_scratch_bytes = 64 * 1024;
  };

  // SIGKILLs and reaps any child still running; closes every fd.
  virtual ~AgentSupervisor();
  AgentSupervisor(const AgentSupervisor&) = delete;
  AgentSupervisor& operator=(const AgentSupervisor&) = delete;

  int num_agents() const { return static_cast<int>(children_.size()); }

  // Control plane (main thread only).
  void Command(AgentId agent, uint32_t tag,
               std::span<const uint8_t> payload = {});
  void CommandAll(uint32_t tag, std::span<const uint8_t> payload = {});
  // Next record from `agent`, watchdog-bounded.  A kCtlRepError record,
  // a hangup, or a timeout is thrown as TransportError; if the child
  // already died, the message names its exit status or fatal signal.
  // Once a fault naming another agent has latched (a convicted wire, or
  // a child that crashed before Done), `agent` gets a 2 s grace to
  // report; then that latched fault is thrown, naming the convicted
  // agent, instead of waiting out the watchdog on a survivor blocked on
  // the dropped frames.
  ControlRecord ReadRecord(AgentId agent);
  // Clean teardown: Shutdown command to every child, Done record from
  // each, then reap; throws on a nonzero exit.  Idempotent.
  void Shutdown();

  // Wire ledger: literal bytes the router moved between processes.
  TrafficStats stats(AgentId agent) const;
  uint64_t total_bytes() const;
  uint64_t total_messages() const;
  double AverageBytesPerAgent() const;
  void ResetStats();
  // Observer runs on the router thread in arrival order (concurrent
  // senders interleave nondeterministically; per-sender order is FIFO).
  void SetObserver(Transport::Observer observer);
  std::optional<TransportFault> fault() const;

  // Blocks until every frame the children have sent is reflected in
  // the ledger.  The relay-router backends account a frame BEFORE
  // delivering it, so they are always in sync and this is a no-op; the
  // shm backend's parent accounts from a tap cursor that trails the
  // peer-to-peer delivery, so CollectWindowReportsBatch calls this before
  // cross-checking the ledger against the children's reports.
  virtual void SyncLedger() {}

  // Whether `agent`'s child has been reaped (test introspection; true
  // for externally launched agents, which have no local pid).
  bool reaped(AgentId agent) const;

  // Test hook: severs `agent`'s wire from the parent side as a broken
  // network/crashed peer would (shutdown(2), so no fd-reuse race with
  // the router thread).  The child's next blocked Receive() throws a
  // structured TransportError; the router latches the fault and keeps
  // routing the survivors.  Never called outside tests.
  void SeverWireForTest(AgentId agent);

 protected:
  AgentSupervisor(int num_agents, Options opts);

  // Hands `agent`'s child to the supervisor: a local pid (or -1 for an
  // externally launched agent), the parent end of its wire, and the
  // parent end of its control channel.  Constructor phase only, before
  // StartRouter.
  void AdoptChild(AgentId agent, pid_t pid, int wire_fd, int ctl_fd);
  // All children adopted: open the wake pipe, flip the wire fds
  // nonblocking, and start the relay router.  Call once, last.  A
  // backend whose frames never cross the parent (ShmTransport) skips
  // this and runs its own accounting thread instead.
  void StartRouter();

  // Ledger + observer entry for one delivered copy, under the
  // supervisor lock — the single accounting path shared by the relay
  // router and the shm snooper, so "every backend charges FramedSize
  // per copy" stays true by construction.
  void AccountDeliveredCopy(const Message& copy);

  // Latches the first fault (later ones are dropped: the first cause is
  // the report, cascading symptoms are noise).  Exposed to backends so
  // a derived accounting thread (the shm snooper) can surface forged or
  // replayed ring records as the same structured fault the relay router
  // raises for severed wires.
  void RecordFault(AgentId agent, std::string detail);

  // Teardown halves, exposed so a derived destructor can stop the
  // children / router BEFORE its own members (e.g. a shared mapping an
  // accounting thread still reads) are destroyed.  Both idempotent.
  void KillAndReapAll();  // SIGKILL stragglers; never throws
  void StopRouter();

 private:
  struct Child {
    pid_t pid = -1;    // -1: externally launched, nothing to reap
    int wire_fd = -1;  // parent end; nonblocking, router thread reads
    std::unique_ptr<ControlChannel> ctl;
    bool done = false;      // clean Done record received (mu_)
    bool wire_eof = false;  // router saw the wire hang up (mu_)
    bool reaped = false;    // waitpid collected (or nothing to collect)
    int wait_status = 0;
  };

  // Router thread only.  A child's wire bytes are untrusted input, and
  // its wire is its identity: a corrupt frame, a forged sender id or an
  // out-of-range recipient convicts the wire's owner — the fault is
  // latched naming it, the wire is closed, nothing of the bad frame is
  // accounted — while the router keeps serving the other children.
  // RouteBufferedFrames returns false once `owner` is convicted.
  void RouterLoop();
  bool RouteBufferedFrames(AgentId owner);
  bool ConvictWire(AgentId owner, const std::string& what);  // -> false
  void RouteFrame(const Message& frame);  // validated frames only
  void FlushPending(AgentId dest);        // router thread only
  void WakeRouter();
  // waitpid with deadline; marks reaped.  Returns false on timeout.
  bool ReapChild(AgentId agent, int timeout_ms);
  // The latched fault_ if it names an agent other than `agent`, after
  // latching any other local child not yet Done whose non-blocking reap
  // shows an unclean exit.
  std::optional<TransportFault> LatchedFaultOfOther(AgentId agent);
  [[noreturn]] void ThrowChildFailure(AgentId agent, const std::string& why);

  std::vector<Child> children_;
  Options opts_;
  WakePipe wake_;
  bool finished_ = false;  // Shutdown() completed cleanly
  bool router_started_ = false;
  bool router_stopped_ = false;

  mutable std::mutex mu_;
  TrafficLedger ledger_;
  Transport::Observer observer_;
  std::optional<TransportFault> fault_;
  bool shutdown_ = false;  // router exit flag

  // Router-thread-only state.
  std::vector<FrameDecoder> rx_;
  std::vector<PendingBuf> pending_;
  std::vector<bool> closed_;  // wire hangup seen

  std::thread router_;
};

}  // namespace pem::net
