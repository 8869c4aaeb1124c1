// Parent-side supervision of out-of-process agents — the control
// plane every forked backend shares.
//
// The parent-side machinery — the child table, the relay router, the
// control plane, the watchdog, the reaping — never looks at HOW a
// child's descriptors came to be (inherited socketpair ends in
// net/process_transport.h, a pre-fork shared mapping in
// net/shm_transport.h), so it lives here and the concrete backends
// only differ in their constructors.  Every agent is a local child
// this process forked.
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
// an Error record.  That a child has ended is learned from the process
// itself, never from a hangup: the supervisor holds a pidfd per
// child (pidfd_open, Linux >= 5.3; collected with waitid(P_PIDFD),
// Linux >= 5.4), which turns readable the moment the child exits, crash
// or not.  The exit is judged against what the child's control channel
// still holds: an Error record is the fault, in the child's own words;
// otherwise an unclean exit is a structured TransportError naming the
// agent and its exit status or signal ("before reporting" if it came
// before Done); a clean exit is no fault.  So a crash surfaces within
// the watchdog, whether or not the child's frames cross the parent.  The
// destructor SIGKILLs and reaps whatever is still running, so no
// orphans or zombies survive a failed run, and every inherited
// descriptor is closed (asserted by the fd-stability lifecycle tests).
#pragma once

#include <sys/types.h>

#include <chrono>
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
// Report keying: the parent commands one window at a time and reads
// every child's report before the next kCtlCmdRun.  Each report ECHOES
// the window id it answers (protocol::WindowRecord::window), and the
// parent rejects any mismatch as a stale report, instead of trusting
// queue position alone.
inline constexpr uint32_t kCtlCmdRun = 1;       // payload: command-defined
inline constexpr uint32_t kCtlCmdShutdown = 2;  // child replies Done + exits
inline constexpr uint32_t kCtlRepWindow = 3;    // payload: a window report
inline constexpr uint32_t kCtlRepDone = 4;      // clean goodbye
inline constexpr uint32_t kCtlRepError = 5;     // payload: utf-8 what()

struct ControlRecord {
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

// Thrown by ControlChannel::Read and AgentSupervisor::ReadRecord when
// the watchdog deadline expires with the peer still connected — a
// distinct type from the hangup / recv-failure TransportError, so a
// caller can tell "alive but slow" from "gone".
class ControlTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

// Length-prefixed records ([u32 tag | u32 len | bytes]) over one end of
// a stream socketpair.  Owns the descriptor.  Reads are
// deadline-bounded and surface hangup / timeout as structured
// TransportError (never a silent nullopt).
class ControlChannel {
 public:
  // `peer` names the agent on the other end (for error messages).
  ControlChannel(int fd, AgentId peer);
  ~ControlChannel();
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  void Write(uint32_t tag, std::span<const uint8_t> payload = {});
  ControlRecord Read(int timeout_ms);

  // The nonblocking pieces Read is built from, for a reader that waits
  // on this channel beside other descriptors.  Pop takes the next whole
  // buffered record; Fill takes in what one recv finds (a hangup or a
  // failed recv marks the channel hung up); Buffered is the payload of
  // the first whole buffered record tagged `tag`, left in place.
  std::optional<ControlRecord> Pop();
  void Fill();
  std::optional<std::vector<uint8_t>> Buffered(uint32_t tag) const;
  bool hung_up() const { return hung_up_; }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  AgentId peer_ = -1;
  bool hung_up_ = false;
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
// Concrete backends (ProcessTransport, ShmTransport)
// differ only in how each child comes to exist and how its descriptors
// reach the parent; their constructors register each child's pid as it
// forks, fill the child table via AdoptChild, and then StartRouter (or
// WatchChildren, for a backend without a router).
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
  // Next record from `agent`.  It waits in one poll on the agent's
  // control channel, the pidfd of every child not yet reaped and the
  // fault latch, until the watchdog.  A kCtlRepError record, a timeout,
  // or the agent's own exit is thrown as TransportError naming it (an
  // exit by its status or fatal signal).  Any other child that ends
  // meanwhile is judged at once (see the lifecycle paragraph above).
  // Once a fault naming another agent has latched (a convicted wire, or
  // a child that ended badly), `agent` gets a 2 s grace to hand in a
  // record it already wrote; then that latched fault is thrown, naming
  // the convicted agent, instead of waiting out the watchdog on a
  // survivor blocked on its frames.
  ControlRecord ReadRecord(AgentId agent);
  // Clean teardown: Shutdown command to every child, Done record from
  // each, then each exit, judged like any other (an Error a child wrote
  // after its Done is the report); throws on a fault.  Idempotent.
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
  // peer-to-peer delivery, so protocol::RunForkedWindow calls this
  // after the window's last report, before cross-checking the ledger
  // against the children's reports.
  virtual void SyncLedger() {}

  // Whether `agent`'s child has been reaped (test introspection).
  bool reaped(AgentId agent) const;

  // Test hook: severs `agent`'s wire from the parent side as a broken
  // link would (shutdown(2), so no fd-reuse race with the router
  // thread).  The child's next blocked Receive() throws a
  // structured TransportError, which it reports; the router closes the
  // wire and keeps routing the survivors.  Never called outside tests.
  void SeverWireForTest(AgentId agent);

 protected:
  AgentSupervisor(int num_agents, Options opts);

  // Records `agent`'s local child the moment it is forked, so the
  // destructor kills and reaps it even if the constructor fails later.
  void RegisterChild(AgentId agent, pid_t pid);
  // Hands the supervisor the parent ends of `agent`'s wire and control
  // channel.  Constructor phase only, before StartRouter.
  void AdoptChild(AgentId agent, int wire_fd, int ctl_fd);
  // Every child forked: open a pidfd per child and the fault latch's
  // wake, after the last fork so that no child inherits a sibling's.
  // An agent never registered is a PEM_CHECK failure; a failed
  // pidfd_open is a TransportError naming the agent.
  void WatchChildren();
  // All children adopted: WatchChildren, open the wake pipe, flip the
  // wire fds nonblocking, and start the relay router.  Call once, last.
  // A backend whose frames never cross the parent (ShmTransport) calls
  // WatchChildren instead and runs its own accounting thread.
  void StartRouter();

  // Ledger + observer entry for one delivered copy, under the
  // supervisor lock — the single accounting path shared by the relay
  // router and the shm snooper, so "every backend charges FramedSize
  // per copy" stays true by construction.
  void AccountDeliveredCopy(const Message& copy);

  // Latches the first fault (later ones are dropped: the first cause is
  // the report, cascading symptoms are noise) and wakes a ReadRecord
  // blocked on a survivor.  Exposed to backends so a derived accounting
  // thread (the shm snooper) can surface forged or replayed ring records
  // as the same structured fault the relay router raises for a
  // convicted wire.
  void RecordFault(AgentId agent, std::string detail);

  // Teardown halves, exposed so a derived destructor can stop the
  // children / router BEFORE its own members (e.g. a shared mapping an
  // accounting thread still reads) are destroyed.  Both idempotent.
  void KillAndReapAll();  // SIGKILL stragglers; never throws
  void StopRouter();

 private:
  struct Child {
    pid_t pid = -1;    // -1 until RegisterChild
    int pidfd = -1;    // readable once the child has ended; -1 once reaped
    int wire_fd = -1;  // parent end; nonblocking, router thread reads
    std::unique_ptr<ControlChannel> ctl;
    bool done = false;    // clean Done record read
    bool reaped = false;  // waitid collected the exit below
    int exit_code = 0;    // CLD_EXITED, CLD_KILLED or CLD_DUMPED
    int exit_status = 0;  // exit status, or the fatal signal
  };

  // Router thread only.  A child's wire bytes are untrusted input, and
  // its wire is its identity: a corrupt frame, a forged sender id or an
  // out-of-range recipient convicts the wire's owner — the fault is
  // latched naming it, the wire is closed, nothing of the bad frame is
  // accounted — while the router keeps serving the other children.  A
  // wire that hangs up is closed without a fault: whether its owner
  // crashed is for its pidfd to say.  RouteBufferedFrames returns false
  // once `owner` is convicted.
  void RouterLoop();
  bool RouteBufferedFrames(AgentId owner);
  bool ConvictWire(AgentId owner, const std::string& what);  // -> false
  void RouteFrame(const Message& frame);  // validated frames only
  void FlushPending(AgentId dest);        // router thread only
  // One poll until `until` on `reading`'s control channel (none if
  // -1), the fault latch's wake and every unreaped child's pidfd; takes
  // in what the channel holds and collects every child that ended.
  void Await(AgentId reading, std::chrono::steady_clock::time_point until);
  // `agent`'s pidfd is readable: reap it, take in everything it wrote,
  // and latch its ExitVerdict, if any, as a fault.
  void Collect(AgentId agent);
  // Why an ended child failed, or nullopt for a clean end: a buffered
  // Error record in its own words, else an unclean exit status.
  std::optional<std::string> ExitVerdict(AgentId agent) const;
  [[noreturn]] void ThrowChildFailure(AgentId agent, const std::string& why);

  std::vector<Child> children_;
  Options opts_;
  WakePipe wake_;        // unparks the router thread
  WakePipe fault_wake_;  // unparks Await once a fault latches
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
