#include "net/process_transport.h"

#include <unistd.h>

#include <memory>

#include "net/child_transport.h"
#include "util/error.h"

namespace pem::net {
namespace {

struct ChildFds {
  int wire_parent = -1;
  int wire_child = -1;
  int ctl_parent = -1;
  int ctl_child = -1;
};

[[noreturn]] void RunForkedChild(AgentId self, int num_agents,
                                 const std::vector<ChildFds>& fds,
                                 const AgentSupervisor::ChildMain& main) {
  // Inherit EXACTLY this agent's ends; every other descriptor in the
  // table belongs to the parent or a sibling.
  for (int j = 0; j < num_agents; ++j) {
    CloseIfOpen(fds[static_cast<size_t>(j)].wire_parent);
    CloseIfOpen(fds[static_cast<size_t>(j)].ctl_parent);
    if (j != self) {
      CloseIfOpen(fds[static_cast<size_t>(j)].wire_child);
      CloseIfOpen(fds[static_cast<size_t>(j)].ctl_child);
    }
  }
  RunChild(self, num_agents,
           std::make_unique<SocketStream>(
               num_agents, self, fds[static_cast<size_t>(self)].wire_child),
           fds[static_cast<size_t>(self)].ctl_child, main);
}

}  // namespace

ProcessTransport::ProcessTransport(int num_agents, ChildMain child_main,
                                   Options opts)
    : AgentSupervisor(num_agents, opts) {
  PEM_CHECK(child_main != nullptr, "ProcessTransport needs a child entry point");
  const size_t n = static_cast<size_t>(num_agents);

  std::vector<ChildFds> fds(n);
  for (size_t i = 0; i < n; ++i) {
    MakeSocketPair(&fds[i].wire_parent, &fds[i].wire_child);
    MakeSocketPair(&fds[i].ctl_parent, &fds[i].ctl_child);
  }

  // Fork every child BEFORE starting the router thread: fork only
  // clones the calling thread, and forking a process that holds live
  // mutex-owning threads is how post-fork deadlocks are made.
  for (size_t i = 0; i < n; ++i) {
    const pid_t pid = fork();
    PEM_CHECK(pid >= 0, "process transport: fork failed");
    if (pid == 0) {
      RunForkedChild(static_cast<AgentId>(i), num_agents, fds, child_main);
    }
    RegisterChild(static_cast<AgentId>(i), pid);
    AdoptChild(static_cast<AgentId>(i), fds[i].wire_parent, fds[i].ctl_parent);
    close(fds[i].wire_child);
    close(fds[i].ctl_child);
    fds[i].wire_child = fds[i].ctl_child = -1;
  }

  StartRouter();
}

}  // namespace pem::net
