// Transport abstraction for the protocol engine.
//
// The paper deploys each agent in its own container, so "the network"
// is whatever carries frames between them.  Protocol code never holds
// the whole transport: it acts through per-agent Endpoint handles
// (Transport::endpoint), so a protocol step can only touch the inbox
// and counters of the agent it is acting for — which is what keeps an
// out-of-process backend honest.  Concrete backends decide the
// threading and process model:
//   * MessageBus        — the in-process FIFO bus behind one mutex,
//                         for serial and phase-parallel runs alike;
//   * ProcessTransport, ShmTransport — one forked OS process per
//                         agent (the paper's one-container-per-agent
//                         deployment), supervised by
//                         net::AgentSupervisor and driven through
//                         core::RunSimulation; each child acts
//                         through one ChildTransport
//                         (net/child_transport.h).
// All backends account identical bytes for identical message
// sequences — exactly FramedSize(msg) per delivered copy — which is
// what lets test_transcript_parity assert a three-way
// (serial/process/shm) parity of the wire transcript.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/message.h"
#include "util/error.h"

namespace pem::net {

class Endpoint;

// Structured description of a channel whose peer went away (EPIPE /
// hangup / EOF).  A closed peer is a runtime failure of the deployment,
// not a programming error, so it must reach the caller as data —
// ProcessTransport needs it to report WHICH child died and HOW —
// instead of a bare abort in the relay thread or a silent nullopt from
// Receive().
struct TransportFault {
  AgentId agent = -1;   // whose channel closed (-1: the transport itself)
  ErrorCode code = ErrorCode::kProtocolViolation;
  std::string detail;   // human-readable: syscall, errno, exit status
};

// Thrown by Receive()/control-plane reads when the underlying channel
// is gone.  Transports record the first fault they observe (see
// Transport::fault()) and throw it from every blocked or subsequent
// read, so protocol code unwinds with a report instead of hanging.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(TransportFault fault)
      : std::runtime_error(std::string(ErrorCodeName(fault.code)) + ": " +
                           fault.detail),
        fault_(std::move(fault)) {}

  const TransportFault& fault() const { return fault_; }

 private:
  TransportFault fault_;
};

// Shared per-agent traffic accounting.  Every backend charges exactly
// the codec's framed size per delivered copy through this one
// implementation, so "all backends account identical bytes" is true
// by construction rather than by keeping copies in sync.  Backends
// with internal concurrency guard the ledger with their own lock.
struct TrafficLedger {
  std::vector<TrafficStats> per_agent;
  uint64_t total_bytes = 0;
  uint64_t total_messages = 0;

  explicit TrafficLedger(size_t num_agents) : per_agent(num_agents) {}

  void Account(AgentId from, AgentId to, size_t payload_size) {
    const uint64_t size = FramedSize(payload_size);
    per_agent[static_cast<size_t>(from)].bytes_sent += size;
    per_agent[static_cast<size_t>(from)].messages_sent += 1;
    per_agent[static_cast<size_t>(to)].bytes_received += size;
    per_agent[static_cast<size_t>(to)].messages_received += 1;
    total_bytes += size;
    total_messages += 1;
  }

  TrafficStats stats(AgentId agent) const {
    return per_agent[static_cast<size_t>(agent)];
  }

  double AverageBytesPerAgent() const {
    if (per_agent.empty()) return 0.0;
    uint64_t sum = 0;
    for (const TrafficStats& s : per_agent) {
      sum += s.bytes_sent + s.bytes_received;
    }
    return static_cast<double>(sum) / static_cast<double>(per_agent.size());
  }

  void Reset() {
    for (TrafficStats& s : per_agent) s = TrafficStats{};
    total_bytes = 0;
    total_messages = 0;
  }
};

class Transport {
 public:
  // Observer invoked for every delivered message (after broadcast
  // fan-out).  Used by transcript-inspection tests and debug tracing;
  // pass nullptr to clear.  Concurrent backends invoke it under their
  // internal lock, so one observer sees a consistent total order —
  // which also means the observer MUST NOT call back into the
  // transport (self-deadlock on the non-recursive lock); record what
  // you need from the Message and query the transport between turns.
  using Observer = std::function<void(const Message&)>;

  virtual ~Transport() = default;

  virtual int num_agents() const = 0;

  // Queues a message for `msg.to`.  kBroadcast delivers a copy to every
  // agent except the sender (each copy is accounted separately, as a
  // real broadcast over unicast links would be).
  virtual void Send(Message msg) = 0;

  // Pops the next message for `agent`; nullopt when nothing has been
  // sent to it that it has not already popped.  Backends with delivery
  // latency (a forked child's wire) block until an already-sent message
  // arrives rather than returning a spurious nullopt.
  virtual std::optional<Message> Receive(AgentId agent) = 0;
  virtual bool HasMessage(AgentId agent) const = 0;

  // Snapshot of the agent's counters (by value: concurrent backends
  // cannot hand out references into state another thread may touch).
  virtual TrafficStats stats(AgentId agent) const = 0;
  virtual uint64_t total_bytes() const = 0;
  virtual uint64_t total_messages() const = 0;

  // Average bytes (sent + received) per agent since the last reset.
  virtual double AverageBytesPerAgent() const = 0;

  // Zeroes the counters (per-window accounting keeps inboxes intact —
  // they are expected to be empty between windows).
  virtual void ResetStats() = 0;

  virtual void SetObserver(Observer observer) = 0;

  // Whether this process computes `agent`'s protocol steps.  In-process
  // backends compute every agent's.  A forked child computes only its
  // own and follows every other agent's traffic on its shadow script,
  // so a step between two agents it does not act for may post
  // placeholder frames of the right sizes instead of computing them,
  // and a frame it receives from another agent may be rebuilt from
  // what its replica knows (a ciphertext's opening).
  virtual bool Acts(AgentId /*agent*/) const { return true; }

  // The next frame `sender` sent to `agent` that `agent` has not yet
  // received, left in place for Receive; nullopt where this process
  // cannot see that frame before the script sends it.  A forked child
  // peeks its own agent's medium, blocking until the frame arrives:
  // that is how it learns a key another process generated
  // (protocol::AnnounceKey).
  virtual std::optional<Message> Peek(AgentId /*agent*/,
                                      AgentId /*sender*/) {
    return std::nullopt;
  }

  // First channel fault observed (closed peer, dead router), if any.
  // Backends without kernel channels can never fault.  Receive() on a
  // faulted transport throws TransportError carrying this description.
  virtual std::optional<TransportFault> fault() const { return std::nullopt; }

  // The per-agent handle protocol code acts through (defined below).
  Endpoint endpoint(AgentId id);
  std::vector<Endpoint> endpoints();
};

// Per-agent transport handle: the only object per-agent protocol code
// may touch.  Sending stamps the owner as the sender, receiving pops
// the owner's inbox only — there is no way to read another agent's
// messages or counters through it.  Cheap to copy (pointer + id); the
// Transport must outlive every handle.
class Endpoint {
 public:
  Endpoint() = default;

  AgentId id() const { return id_; }
  bool valid() const { return transport_ != nullptr; }
  int num_agents() const { return transport_->num_agents(); }

  // Sends to `to` (or kBroadcast) as this agent.
  void Send(AgentId to, uint32_t type, std::vector<uint8_t> payload) {
    transport_->Send(Message{id_, to, type, std::move(payload)});
  }
  // Whole-message overload; the sender field must be the owner.
  void Send(Message msg) {
    PEM_CHECK(msg.from == id_, "Endpoint::Send: message forges its sender");
    transport_->Send(std::move(msg));
  }

  std::optional<Message> Receive() { return transport_->Receive(id_); }
  // The next frame from `sender` Receive will pop (Transport::Peek).
  std::optional<Message> Peek(AgentId sender) {
    return transport_->Peek(id_, sender);
  }
  bool HasMessage() const { return transport_->HasMessage(id_); }
  TrafficStats stats() const { return transport_->stats(id_); }
  // Whether this process computes the owner's steps (Transport::Acts).
  bool acts() const { return transport_->Acts(id_); }

 private:
  friend class Transport;
  Endpoint(Transport* transport, AgentId id) : transport_(transport), id_(id) {}

  Transport* transport_ = nullptr;
  AgentId id_ = -1;
};

inline Endpoint Transport::endpoint(AgentId id) {
  PEM_CHECK(id >= 0 && id < num_agents(), "endpoint: agent id out of range");
  return Endpoint(this, id);
}

inline std::vector<Endpoint> Transport::endpoints() {
  std::vector<Endpoint> out;
  out.reserve(static_cast<size_t>(num_agents()));
  for (AgentId a = 0; a < num_agents(); ++a) out.push_back(endpoint(a));
  return out;
}

// Sum of bytes sent across a community's endpoints.  Every delivered
// copy is accounted once on its sender, so this equals the transport's
// total_bytes() — it lets driver code (RunPemWindow) measure a window
// without holding the whole transport.
inline uint64_t TotalBytesSent(std::span<const Endpoint> endpoints) {
  uint64_t sum = 0;
  for (const Endpoint& ep : endpoints) sum += ep.stats().bytes_sent;
  return sum;
}

// Which concrete Transport a run uses.
enum class TransportKind {
  kSerialBus,  // MessageBus: in-process, any thread count
  kProcess,    // ProcessTransport: one forked OS process per agent
  kTcp,        // no backend: perfbench still names it (ROADMAP item 20)
  kShm,        // ShmTransport: one process per agent over shared-
               // memory SPSC rings (zero kernel copies)
};

inline const char* TransportKindName(TransportKind k) {
  // Exhaustive on purpose: adding a TransportKind without naming it is
  // a compile-time -Wswitch warning here, not a silent "unknown".
  switch (k) {
    case TransportKind::kSerialBus: return "serial";
    case TransportKind::kProcess: return "process";
    case TransportKind::kTcp: return "tcp";
    case TransportKind::kShm: return "shm";
  }
  PEM_CHECK(false, "invalid TransportKind value");
  return nullptr;
}

// How a protocol run executes: which transport carries the frames and
// how many workers the local-compute phases may use — the only two
// settings.  Threaded through SimulationConfig -> ProtocolContext so
// RunSimulation can select serial, phase-parallel or forked per run;
// a forked backend runs with its own default options (watchdog, ring
// size).  Every backend runs a day one window at a time.  The wire
// transcript is invariant under this policy (see RingAggregate's
// prepare/compute/forward phasing): workers only fill buffers, and
// every send happens on the caller's thread.
struct ExecutionPolicy {
  TransportKind transport_kind = TransportKind::kSerialBus;
  int threads = 1;

  bool parallel() const { return threads > 1; }
  unsigned worker_count() const {
    return threads > 1 ? static_cast<unsigned>(threads) : 1u;
  }

  static ExecutionPolicy Serial() { return {}; }
  // The phase-parallel engine: the same in-process bus, with the
  // compute phases fanned out across `threads` workers.
  static ExecutionPolicy Parallel(int threads) {
    return {TransportKind::kSerialBus, threads};
  }
  // One forked OS process per agent: each child inherits exactly its
  // own socketpair end and runs a single agent's side of every phase
  // (protocol/agent_driver.h); the relay router and result collection
  // stay in the parent.  `threads` sets each child's compute fan-out.
  static ExecutionPolicy Process(int threads = 1) {
    return {TransportKind::kProcess, threads};
  }
  // One forked OS process per agent exchanging frames through shared-
  // memory SPSC rings (net/shm_transport.h): zero kernel copies and no
  // router hop for co-located agents, with the parent accounting every
  // frame from a tap cursor.  `threads` sets each child's compute
  // fan-out.
  static ExecutionPolicy Shm(int threads = 1) {
    return {TransportKind::kShm, threads};
  }
};

// Constructs the backend selected by `kind`.  Aborts on a non-positive
// agent count — a zero-agent transport can only hide bugs.  Only
// kSerialBus is constructible here: forking children requires a child
// entry point, so the driver must build the forked backends directly
// (as core::RunSimulation does for ExecutionPolicy::Process()), and
// kTcp selects no backend at all.
std::unique_ptr<Transport> MakeTransport(TransportKind kind, int num_agents);

}  // namespace pem::net
