// The child side of every forked backend: one Transport, one receive
// rule, one entry point.
//
// Execution model (see protocol/agent_driver.h for the protocol side).
// The PEM protocols are a deterministic script over one seeded RNG:
// coalition formation, ring orders, aggregator elections, nonces and
// encryption randomness all derive from state every child inherited at
// fork time.  Each child therefore re-derives the public schedule by
// running the canonical script against an in-memory shadow bus
// (MessageBus), while the wire operations of ITS OWN agent are real:
//   * Send(from == self)  puts the canonical frame on the medium (and
//     on the shadow, which keeps the script advancing);
//   * Receive(self)       takes the next frame the script's sender put
//     on the medium toward this agent and byte-matches it against the
//     shadow's expectation, so every message this agent consumes
//     provably crossed the process boundary byte-identical to what the
//     deterministic protocol demands;
//   * Send/Receive(other) touch only the shadow: another agent's
//     traffic is that agent's own process's business.  Acts(agent) is
//     true for the own agent only, and protocol code computes only the
//     steps of agents it acts for.  A frame another agent sends to
//     this one is rebuilt, and the byte-match above checks it against
//     the wire: a Paillier frame from the replica's opening of the
//     ciphertext (protocol/context.h), a secure-comparison frame from
//     the compare's drawn coins (crypto/secure_compare.h), so each
//     compare endpoint's process computes only its own half.  A frame
//     between two other agents, a ring hop or a secure-comparison
//     message, is a zero-filled placeholder of its fixed size; and
//     only the key owner's process generates and decrypts under a key;
//   * Peek(self, sender)  shows the next frame from the sender without
//     consuming it.  A key announcement is the one frame a child must
//     read before its script can send it: the child does not search
//     for another agent's primes, so it learns that agent's public key
//     from its own copy (protocol::AnnounceKey) and replays the
//     broadcast from it, and Receive still byte-matches the copy.
//
// Receive rule.  Senders run in parallel, so frames from different
// senders reach this agent in any order; each sender's FIFO toward it
// is the only order two independent parties can observe, and every
// medium keeps it.  Receive(self) takes the next frame from the sender
// the script names, and one that is not byte-equal to the script's
// fails at once with a TransportError naming this agent, the sender
// and the frame type.  The medium is a ChildWire: SocketStream for the
// process backend, the ring grid in net/shm_transport.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/agent_supervisor.h"
#include "net/bus.h"
#include "net/frame.h"
#include "net/transport.h"

namespace pem::net {

// One child's medium: its own frames out, each peer's frames in.
class ChildWire {
 public:
  virtual ~ChildWire() = default;
  // Puts one of the own agent's frames on the medium (a broadcast
  // reaches every other agent).
  virtual void Write(const Message& msg) = 0;
  // Blocks for the next frame `sender` sent to this agent.  Throws
  // TransportError when the medium breaks or carries garbage.
  virtual Message Next(AgentId sender) = 0;
  // Blocks for the same frame as Next, and leaves it for Next.
  virtual Message Peek(AgentId sender) = 0;
  // Throws TransportError if anything arrived that the script never
  // consumed: the medium and the deterministic script diverged.
  virtual void VerifyDrained() = 0;
};

// Process medium: one stream socket to the parent's relay
// router, which fans broadcasts out and convicts any wire whose frames
// forge their sender, so `from` on an arriving frame is trusted and
// names the queue it joins.  Takes ownership of `fd`.
class SocketStream final : public ChildWire {
 public:
  SocketStream(int num_agents, AgentId self, int fd);
  ~SocketStream() override;
  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  void Write(const Message& msg) override;
  Message Next(AgentId sender) override;
  Message Peek(AgentId sender) override;
  void VerifyDrained() override;

  // Test hook: writes `bytes` raw onto this agent's wire, bypassing
  // the shadow — how a compromised child would forge, corrupt or
  // misaddress frames.  Never called outside tests.
  void WriteWireBytesForTest(std::span<const uint8_t> bytes);

 private:
  Message ReadFrame();  // blocking; throws TransportError on hangup
  // `sender`'s queue, after reading until it holds a frame.
  std::deque<Message>& QueueFrom(AgentId sender);

  AgentId self_;
  int fd_ = -1;
  FrameDecoder rx_;
  // Frames that arrived before the script asked for their sender,
  // per sender; `queued_` counts them all.
  std::vector<std::deque<Message>> early_;
  size_t queued_ = 0;
};

// The Transport a forked child hands its protocol driver: canonical
// shadow bus for the script, real medium for this agent's own traffic
// (see the file comment).  Accounting, HasMessage and the observer run
// on the shadow, so stats() reports exactly the canonical per-agent
// ledger every in-process backend reports — while the parent
// independently accounts the literal frames it routes or snoops, and
// the two are asserted equal per window.
class ChildTransport final : public Transport {
 public:
  ChildTransport(int num_agents, AgentId self, std::unique_ptr<ChildWire> wire);

  ChildWire& wire() { return *wire_; }

  int num_agents() const override { return shadow_.num_agents(); }
  void Send(Message msg) override;
  std::optional<Message> Receive(AgentId agent) override;
  bool HasMessage(AgentId a) const override { return shadow_.HasMessage(a); }
  TrafficStats stats(AgentId a) const override { return shadow_.stats(a); }
  uint64_t total_bytes() const override { return shadow_.total_bytes(); }
  uint64_t total_messages() const override { return shadow_.total_messages(); }
  double AverageBytesPerAgent() const override {
    return shadow_.AverageBytesPerAgent();
  }
  void ResetStats() override { shadow_.ResetStats(); }
  void SetObserver(Observer o) override { shadow_.SetObserver(std::move(o)); }
  // A child computes its own agent's steps only, and sees only its own
  // agent's medium.
  bool Acts(AgentId agent) const override { return agent == self_; }
  std::optional<Message> Peek(AgentId agent, AgentId sender) override;

 private:
  MessageBus shadow_;
  AgentId self_;
  std::unique_ptr<ChildWire> wire_;
};

// Runs inside a freshly forked child process: builds the control
// channel over `ctl_fd` and the ChildTransport over make_wire(self,
// wire_fd), runs `child_main`, checks the medium is drained, reports an
// Error record on exception (a medium that fails to build included),
// and _exits with the callable's return value.  AgentSupervisor::Launch
// enters every child here.
[[noreturn]] void RunChild(AgentId self, int num_agents,
                           const AgentSupervisor::MakeWire& make_wire,
                           int wire_fd, int ctl_fd,
                           const AgentSupervisor::ChildMain& child_main);

}  // namespace pem::net
