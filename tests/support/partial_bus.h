// The in-process bus as a forked child sees it.
//
// A forked child computes only its own agent's protocol steps
// (net::Transport::Acts) and follows the others on a shadow script.
// PartialBus is a MessageBus that acts only for the agents it is given,
// so a test can run that projection in one process and compare it with
// the full run from the same seed.  Acting for every agent is the
// plain MessageBus; acting for none is the pure observer.
#pragma once

#include <set>
#include <utility>

#include "net/bus.h"

namespace pem::testutil {

class PartialBus : public net::MessageBus {
 public:
  PartialBus(int n, std::set<net::AgentId> acting)
      : MessageBus(n), acting_(std::move(acting)) {}
  bool Acts(net::AgentId agent) const override {
    return acting_.count(agent) > 0;
  }

 private:
  std::set<net::AgentId> acting_;
};

}  // namespace pem::testutil
