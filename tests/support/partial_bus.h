// The in-process bus as a forked child sees it.
//
// A forked child computes only its own agent's protocol steps
// (net::Transport::Acts) and follows the others on a shadow script.
// PartialBus is a MessageBus that acts only for the agents it is given,
// so a test can run that projection in one process and compare it with
// the full run from the same seed.  Acting for every agent is the
// plain MessageBus; acting for none is the pure observer.
//
// A child also peeks at its own agent's medium for frames the script
// has not sent yet: how it learns a key whose owner it does not act for
// (protocol::AnnounceKey).  PartialBus serves Peek from `transcript`,
// the frames the full run delivered (its observer's record), in the
// order each receiver takes them from each sender.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/bus.h"

namespace pem::testutil {

class PartialBus : public net::MessageBus {
 public:
  PartialBus(int n, std::set<net::AgentId> acting,
             std::vector<net::Message> transcript = {})
      : MessageBus(n),
        acting_(std::move(acting)),
        transcript_(std::move(transcript)) {}
  bool Acts(net::AgentId agent) const override {
    return acting_.count(agent) > 0;
  }

  std::optional<net::Message> Receive(net::AgentId agent) override {
    std::optional<net::Message> m = MessageBus::Receive(agent);
    if (m.has_value()) ++received_[{agent, m->from}];
    return m;
  }

  // The transcript's next frame from `sender` to `agent` after the ones
  // `agent` has received.
  std::optional<net::Message> Peek(net::AgentId agent,
                                   net::AgentId sender) override {
    size_t skip = received_[{agent, sender}];
    for (const net::Message& m : transcript_) {
      if (m.from != sender || m.to != agent) continue;
      if (skip-- == 0) return m;
    }
    return std::nullopt;
  }

 private:
  std::set<net::AgentId> acting_;
  std::vector<net::Message> transcript_;
  std::map<std::pair<net::AgentId, net::AgentId>, size_t> received_;
};

}  // namespace pem::testutil
