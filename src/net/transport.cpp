#include "net/transport.h"

#include "net/bus.h"
#include "util/error.h"

namespace pem::net {

std::unique_ptr<Transport> MakeTransport(TransportKind kind, int num_agents) {
  PEM_CHECK(num_agents > 0, "MakeTransport: agent count must be positive");
  switch (kind) {
    case TransportKind::kSerialBus:
      return std::make_unique<MessageBus>(num_agents);
    case TransportKind::kProcess:
      PEM_CHECK(false,
                "MakeTransport: kProcess forks one child per agent and needs "
                "a child entry point; construct net::ProcessTransport "
                "directly (RunSimulation does for ExecutionPolicy::Process())");
      return nullptr;
    case TransportKind::kTcp:
      PEM_CHECK(false, "MakeTransport: kTcp selects no backend");
      return nullptr;
    case TransportKind::kShm:
      PEM_CHECK(false,
                "MakeTransport: kShm forks one child per agent over shared-"
                "memory rings and needs a child entry point; construct "
                "net::ShmTransport directly (RunSimulation does for "
                "ExecutionPolicy::Shm())");
      return nullptr;
  }
  PEM_CHECK(false, "unknown transport kind");
  return nullptr;
}

}  // namespace pem::net
