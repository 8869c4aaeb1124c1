// In-process message bus with bandwidth accounting.
//
// The paper deploys each agent in a Docker container on one host; the
// protocols are ring-sequential, so an in-process bus with per-agent
// FIFO inboxes reproduces both the message pattern and the bytes on the
// wire.  Every Send() adds a small frame header (sender, receiver,
// type) to the accounted size, mirroring a TCP/protobuf-style framing.
//
// MessageBus is the one in-process Transport backend, serial and
// phase-parallel runs alike.  Every operation takes an internal lock,
// so ParallelFor workers may Send() concurrently: messages from one
// sender keep that sender's order, and interleaving across senders
// follows lock acquisition, like packets racing into a switch.  The
// protocol engine itself never sends from a worker (compute phases
// fill buffers; the sends happen afterwards on the caller's thread),
// so there the lock is always uncontended and the transcript is the
// serial one.  The observer runs under the lock, so the recorded
// transcript is a consistent total order; it must never call back into
// the bus (the lock is not recursive).  For one process per agent over
// kernel channels see ProcessTransport (net/process_transport.h).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "net/serialize.h"
#include "net/transport.h"

namespace pem::net {

class MessageBus : public Transport {
 public:
  explicit MessageBus(int num_agents);

  // Fixed at construction, so readable without the lock.
  int num_agents() const override {
    return static_cast<int>(inboxes_.size());
  }

  void Send(Message msg) override;
  std::optional<Message> Receive(AgentId agent) override;
  bool HasMessage(AgentId agent) const override;

  TrafficStats stats(AgentId agent) const override;
  uint64_t total_bytes() const override;
  uint64_t total_messages() const override;
  double AverageBytesPerAgent() const override;
  void ResetStats() override;
  void SetObserver(Observer observer) override;

 private:
  mutable std::mutex mu_;
  std::vector<std::deque<Message>> inboxes_;  // guarded by mu_
  TrafficLedger ledger_;                      // guarded by mu_
  Observer observer_;                         // guarded by mu_
};

}  // namespace pem::net
