#include "net/bus.h"

#include "util/error.h"

namespace pem::net {

MessageBus::MessageBus(int num_agents)
    : inboxes_(static_cast<size_t>(num_agents)),
      ledger_(static_cast<size_t>(num_agents)) {
  PEM_CHECK(num_agents > 0, "MessageBus needs at least one agent");
}

void MessageBus::Send(Message msg) {
  PEM_CHECK(msg.from >= 0 && msg.from < num_agents(), "bad sender id");
  const std::lock_guard<std::mutex> lock(mu_);
  if (msg.to == kBroadcast) {
    for (AgentId to = 0; to < num_agents(); ++to) {
      if (to == msg.from) continue;
      Message copy = msg;
      copy.to = to;
      ledger_.Account(msg.from, to, copy.payload.size());
      if (observer_) observer_(copy);
      inboxes_[static_cast<size_t>(to)].push_back(std::move(copy));
    }
    return;
  }
  PEM_CHECK(msg.to >= 0 && msg.to < num_agents(), "bad receiver id");
  ledger_.Account(msg.from, msg.to, msg.payload.size());
  if (observer_) observer_(msg);
  inboxes_[static_cast<size_t>(msg.to)].push_back(std::move(msg));
}

std::optional<Message> MessageBus::Receive(AgentId agent) {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  const std::lock_guard<std::mutex> lock(mu_);
  auto& box = inboxes_[static_cast<size_t>(agent)];
  if (box.empty()) return std::nullopt;
  Message m = std::move(box.front());
  box.pop_front();
  return m;
}

bool MessageBus::HasMessage(AgentId agent) const {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  const std::lock_guard<std::mutex> lock(mu_);
  return !inboxes_[static_cast<size_t>(agent)].empty();
}

TrafficStats MessageBus::stats(AgentId agent) const {
  PEM_CHECK(agent >= 0 && agent < num_agents(), "bad agent id");
  const std::lock_guard<std::mutex> lock(mu_);
  return ledger_.stats(agent);
}

uint64_t MessageBus::total_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ledger_.total_bytes;
}

uint64_t MessageBus::total_messages() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ledger_.total_messages;
}

double MessageBus::AverageBytesPerAgent() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ledger_.AverageBytesPerAgent();
}

void MessageBus::ResetStats() {
  const std::lock_guard<std::mutex> lock(mu_);
  ledger_.Reset();
}

void MessageBus::SetObserver(Observer observer) {
  const std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

}  // namespace pem::net
