#include "net/process_transport.h"

#include <memory>

#include "net/child_transport.h"

namespace pem::net {

ProcessTransport::ProcessTransport(int num_agents, ChildMain child_main,
                                   Options opts)
    : AgentSupervisor(num_agents, opts) {
  Launch(child_main, /*routed=*/true, [num_agents](AgentId self, int wire_fd) {
    return std::make_unique<SocketStream>(num_agents, self, wire_fd);
  });
}

}  // namespace pem::net
