// Transport backend with one forked OS process per agent.
//
// This is the deployment model the paper actually evaluates — every
// agent an independent party that exchanges nothing but wire messages —
// realized with fork(2): the parent creates one full-duplex Unix-domain
// socketpair per agent plus a control socketpair, forks one child per
// agent that inherits EXACTLY its own ends, and keeps the relay router
// in the parent.  Table-I bandwidth measured here is literal
// cross-process socket traffic, accounted by the parent as the frames
// cross its router.
//
// The parent-side machinery — child table, relay router, control
// plane, watchdog, reaping — is the shared net::AgentSupervisor
// (net/agent_supervisor.h); this backend only differs in its
// constructor: make socketpairs, fork, adopt.
//
// Execution model (see protocol/agent_driver.h for the protocol side).
// The PEM protocols are a deterministic script over one seeded RNG:
// coalition formation, ring orders, aggregator elections, nonces and
// encryption randomness all derive from state every child inherited at
// fork time.  Each child therefore re-derives the public schedule by
// running the canonical script against an in-memory shadow bus
// (MessageBus), while the wire operations of ITS OWN agent are real:
//   * Send(from == self)  writes the canonical frame to the wire fd
//     (and to the shadow, which keeps the script advancing);
//   * Receive(self)       blocks on the wire, consumes the arriving
//     frame and byte-matches it against the shadow's expectation, so
//     every message this agent consumes provably crossed the kernel
//     byte-identical to what the deterministic protocol demands;
//   * Send/Receive(other) touch only the shadow: another agent's
//     traffic is that agent's own process's business.  Acts(agent) is
//     true for the own agent only, and protocol code computes only the
//     steps of agents it acts for.  A Paillier frame another agent
//     sends to this one is rebuilt from the replica's opening of the
//     ciphertext (protocol/context.h), and the byte-match above checks
//     it against the wire; a frame between two other agents, a ring
//     hop or a secure-comparison message, is a zero-filled placeholder
//     of its fixed size; and only the key owner's process decrypts.
// Frames from concurrent senders may physically arrive out of script
// order (the processes really do run in parallel); a small stash holds
// early arrivals until the script asks for them, so per-sender FIFO
// order — the only order two independent parties can observe — is what
// the parity tests compare.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/agent_supervisor.h"
#include "net/bus.h"
#include "net/frame.h"
#include "net/transport.h"

namespace pem::net {

// --- child side -------------------------------------------------------

// The Transport a forked child hands its protocol driver: canonical
// shadow bus for the script, real wire fd for this agent's own traffic
// (see the file comment).  Accounting, HasMessage and the observer run
// on the shadow, so stats() reports exactly the canonical per-agent
// ledger every in-process backend reports — while the parent router
// independently accounts the literal socket bytes, and the two are
// asserted equal per window.  Every frame this agent consumes is
// byte-matched against the deterministic script, and any mismatch
// throws.
class ProcessChildTransport : public Transport {
 public:
  // Takes ownership of `wire_fd` (this agent's end of the wire).
  ProcessChildTransport(int num_agents, AgentId self, int wire_fd);
  ~ProcessChildTransport() override;
  ProcessChildTransport(const ProcessChildTransport&) = delete;
  ProcessChildTransport& operator=(const ProcessChildTransport&) = delete;

  AgentId self() const { return self_; }

  int num_agents() const override { return shadow_.num_agents(); }
  void Send(Message msg) override;
  std::optional<Message> Receive(AgentId agent) override;
  bool HasMessage(AgentId agent) const override;
  TrafficStats stats(AgentId agent) const override;
  uint64_t total_bytes() const override { return shadow_.total_bytes(); }
  uint64_t total_messages() const override { return shadow_.total_messages(); }
  double AverageBytesPerAgent() const override;
  void ResetStats() override { shadow_.ResetStats(); }
  void SetObserver(Observer observer) override;
  // A child computes its own agent's steps only.
  bool Acts(AgentId agent) const override { return agent == self_; }

  // Asserts nothing unconsumed remains: no stashed early arrivals, no
  // partial frame in the decoder, no unread bytes in the kernel buffer.
  // Called after the protocol script completes; anything left means the
  // wire and the deterministic script diverged.
  void VerifyQuiescent() const;

  // Test hook: writes `bytes` raw onto this agent's wire, bypassing
  // Send() and the shadow — how a compromised child would forge,
  // corrupt or misaddress frames.  Never called outside tests.
  void WriteWireBytesForTest(std::span<const uint8_t> bytes);

 private:
  Message ReadWireFrame();  // blocking; throws TransportError on hangup

  MessageBus shadow_;
  AgentId self_;
  int wire_fd_ = -1;
  FrameDecoder rx_;
  // Frames that physically arrived before the script asked for them.
  std::vector<Message> stash_;
};

// Runs inside a freshly launched child process: builds the child-side
// transport over `wire_fd` and the control channel over `ctl_fd`, runs
// `child_main`, reports an Error record on exception, and _exits with
// the callable's return value.  Shared by the fork-over-socketpair and
// the connect-over-TCP child launchers.
[[noreturn]] void RunAdoptedChild(AgentId self, int num_agents, int wire_fd,
                                  int ctl_fd,
                                  const AgentSupervisor::ChildMain& child_main);

// One forked OS process per agent over inherited socketpairs.
class ProcessTransport : public AgentSupervisor {
 public:
  using Options = AgentSupervisor::Options;

  ProcessTransport(int num_agents, ChildMain child_main, Options opts);
  ProcessTransport(int num_agents, ChildMain child_main)
      : ProcessTransport(num_agents, std::move(child_main), Options{}) {}
};

}  // namespace pem::net
