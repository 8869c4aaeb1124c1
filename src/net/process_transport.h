// Transport backend with one forked OS process per agent.
//
// This is the deployment model the paper actually evaluates — every
// agent an independent party that exchanges nothing but wire messages —
// realized with fork: net::AgentSupervisor::Launch gives every agent a
// full-duplex Unix-domain wire socketpair plus a control socketpair,
// forks one child per agent that inherits EXACTLY its own ends, and
// keeps the relay router in the parent.  Table-I bandwidth measured
// here is literal cross-process socket traffic, accounted by the
// parent as the frames cross its router.
//
// The parent-side machinery — launch, child table, relay router,
// control plane, watchdog, reaping — is the shared
// net::AgentSupervisor (net/agent_supervisor.h); this backend only
// supplies the medium: a routed launch whose children each talk over
// their own wire socket.
//
// Children run net/child_transport.h's ChildTransport over a
// SocketStream: the own agent's frames go to the router on the wire
// socket, and the stream the router writes back is demultiplexed into
// per-sender FIFOs that the script's receives consume byte-matched.
#pragma once

#include "net/agent_supervisor.h"

namespace pem::net {

// One forked OS process per agent over inherited socketpairs.
class ProcessTransport : public AgentSupervisor {
 public:
  using Options = AgentSupervisor::Options;

  ProcessTransport(int num_agents, ChildMain child_main, Options opts);
  ProcessTransport(int num_agents, ChildMain child_main)
      : ProcessTransport(num_agents, std::move(child_main), Options{}) {}
};

}  // namespace pem::net
