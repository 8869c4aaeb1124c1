// In-process message bus with bandwidth accounting.
//
// The paper deploys each agent in a Docker container on one host; the
// protocols are ring-sequential, so an in-process bus with per-agent
// FIFO inboxes reproduces both the message pattern and the bytes on the
// wire.  Every Send() adds a small frame header (sender, receiver,
// type) to the accounted size, mirroring a TCP/protobuf-style framing.
//
// MessageBus is the serial Transport backend: no locking, so it must
// only be touched from one thread.  For phase-parallel runs see
// ConcurrentMessageBus (net/concurrent_bus.h); for one process per
// agent over kernel channels see ProcessTransport
// (net/process_transport.h).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/serialize.h"
#include "net/transport.h"

namespace pem::net {

class MessageBus : public Transport {
 public:
  explicit MessageBus(int num_agents);

  int num_agents() const override {
    return static_cast<int>(inboxes_.size());
  }

  void Send(Message msg) override;
  std::optional<Message> Receive(AgentId agent) override;
  bool HasMessage(AgentId agent) const override;

  TrafficStats stats(AgentId agent) const override;
  uint64_t total_bytes() const override { return ledger_.total_bytes; }
  uint64_t total_messages() const override { return ledger_.total_messages; }
  double AverageBytesPerAgent() const override;
  void ResetStats() override;

  void SetObserver(Observer observer) override {
    observer_ = std::move(observer);
  }

 private:
  std::vector<std::deque<Message>> inboxes_;
  TrafficLedger ledger_;
  Observer observer_;
};

}  // namespace pem::net
