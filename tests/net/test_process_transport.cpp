// ProcessTransport: true multi-process agents over inherited
// socketpairs.
//
// Covers the wire path (frames really cross the kernel between forked
// processes, accounted by the parent router), the control plane, and —
// the part that pages people at 3am — child lifecycle: a crashed child
// surfaces a structured error naming its exit status within the
// watchdog, teardown leaves no zombie processes (asserted via waitpid)
// and no leaked descriptors (asserted by counting /proc/self/fd across
// construct/destroy cycles).
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/frame.h"
#include "net/process_transport.h"

namespace pem::net {
namespace {

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  EXPECT_NE(dir, nullptr);
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  // Minus ".", "..", and the directory stream's own descriptor.
  return count - 3;
}

void ExpectNoChildrenLeft() {
  int status = 0;
  errno = 0;
  const pid_t r = waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(r, -1) << "an unreaped child (pid " << r << ") survived teardown";
  EXPECT_EQ(errno, ECHILD);
}

// Child that does nothing but answer the shutdown handshake.
int IdleChild(AgentId, Transport&, ControlChannel& ctl) {
  for (;;) {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    if (cmd.tag == kCtlCmdShutdown) {
      ctl.Write(kCtlRepDone);
      return 0;
    }
  }
}

double ElapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ProcessTransport, RingExchangeCrossesRealSockets) {
  constexpr int kAgents = 3;
  // Every child runs the same canonical script; only its own agent's
  // sends and receives touch the real wire.  The exchange waits for a
  // run command so the parent can attach its observer first.
  ProcessTransport::ChildMain script = [](AgentId, Transport& wire,
                                          ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    const int n = wire.num_agents();
    std::vector<Endpoint> eps = wire.endpoints();
    for (AgentId a = 0; a < n; ++a) {
      eps[static_cast<size_t>(a)].Send((a + 1) % n, /*type=*/7,
                                       {uint8_t(10 + a), uint8_t(20 + a)});
    }
    for (AgentId a = 0; a < n; ++a) {
      const AgentId receiver = (a + 1) % n;
      std::optional<Message> m = eps[static_cast<size_t>(receiver)].Receive();
      PEM_CHECK(m.has_value(), "test: missing ring message");
      PEM_CHECK(m->from == a && m->type == 7, "test: wrong ring message");
      PEM_CHECK(m->payload == std::vector<uint8_t>(
                                  {uint8_t(10 + a), uint8_t(20 + a)}),
                "test: wrong ring payload");
    }
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };

  ProcessTransport transport(kAgents, script);
  std::vector<Message> seen;
  transport.SetObserver([&seen](const Message& m) { seen.push_back(m); });
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.Shutdown();
  // A clean shutdown is not a fault, even though the router saw every
  // wire hang up as the children exited.
  EXPECT_FALSE(transport.fault().has_value());

  // Literal socket bytes: each of the 3 frames crossed child -> router
  // -> child and was accounted exactly once.
  EXPECT_EQ(transport.total_messages(), 3u);
  EXPECT_EQ(transport.total_bytes(), 3 * FramedSize(2));
  for (AgentId a = 0; a < kAgents; ++a) {
    const TrafficStats s = transport.stats(a);
    EXPECT_EQ(s.bytes_sent, FramedSize(2)) << a;
    EXPECT_EQ(s.bytes_received, FramedSize(2)) << a;
  }
  ASSERT_EQ(seen.size(), 3u);
  for (const Message& m : seen) {
    EXPECT_EQ(m.to, (m.from + 1) % kAgents);
    EXPECT_EQ(m.type, 7u);
  }
  ExpectNoChildrenLeft();
}

TEST(ProcessTransport, BroadcastFansOutAtTheRouter) {
  constexpr int kAgents = 4;
  ProcessTransport::ChildMain script = [](AgentId, Transport& wire,
                                          ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    std::vector<Endpoint> eps = wire.endpoints();
    eps[1].Send(kBroadcast, /*type=*/9, {1, 2, 3, 4, 5});
    for (AgentId a = 0; a < wire.num_agents(); ++a) {
      if (a == 1) continue;
      std::optional<Message> m = eps[static_cast<size_t>(a)].Receive();
      PEM_CHECK(m.has_value() && m->from == 1 && m->to == a,
                "test: bad broadcast copy");
    }
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };
  ProcessTransport transport(kAgents, script);
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.Shutdown();
  // One frame on the sender's wire, fanned out to n-1 accounted copies
  // like a real broadcast over unicast links.
  EXPECT_EQ(transport.total_messages(), 3u);
  EXPECT_EQ(transport.stats(1).bytes_sent, 3 * FramedSize(5));
  EXPECT_EQ(transport.stats(0).bytes_received, FramedSize(5));
  ExpectNoChildrenLeft();
}

TEST(ProcessTransport, MakeTransportRefusesProcessKind) {
  EXPECT_DEATH((void)MakeTransport(TransportKind::kProcess, 3),
               "child entry point");
}

// --- child lifecycle --------------------------------------------------

TEST(ProcessLifecycle, CrashedChildSurfacesExitStatusFast) {
  constexpr int kAgents = 3;
  ProcessTransport::ChildMain script = [](AgentId self, Transport& wire,
                                          ControlChannel& ctl) -> int {
    if (self == 1) _exit(3);  // deliberate crash before any report
    return IdleChild(self, wire, ctl);
  };
  const auto start = std::chrono::steady_clock::now();
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 10'000;
    ProcessTransport transport(kAgents, script, opts);
    try {
      (void)transport.ReadRecord(1);
      FAIL() << "a crashed child must not produce a record";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.fault().agent, 1);
      EXPECT_NE(std::string(e.what()).find("status 3"), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(transport.reaped(1));
    // The crash is queryable as a structured fault too.
    ASSERT_TRUE(transport.fault().has_value());
    EXPECT_EQ(transport.fault()->agent, 1);
  }
  // Fail-fast: exit detection, not watchdog expiry, drove this.
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  ExpectNoChildrenLeft();
}

TEST(ProcessLifecycle, SurvivorBlockedOnCrashedPeerNamesTheCrash) {
  // Agent 1 crashes on Run; agent 2 waits forever on a frame agent 1
  // never sends.  The router sees only agent 1's wire hang up, and the
  // parent must treat the unclean exit as a conviction: agent 2's read
  // fails within the post-conviction grace, naming agent 1, instead of
  // sitting out the watchdog and blaming the blocked survivor.
  ProcessTransport::ChildMain script = [](AgentId self, Transport& wire,
                                          ControlChannel& ctl) -> int {
    (void)ctl.Read(/*timeout_ms=*/60'000);  // the one Run command
    if (self == 1) _exit(1);
    if (self == 2) {
      // The script's send from agent 1 (shadow only here), then the
      // real wire read that agent 1's crash leaves blocked.
      wire.Send(Message{1, 2, /*type=*/0x4100, {9}});
      (void)wire.Receive(2);
    }
    ctl.Write(kCtlRepWindow);
    for (;;) pause();  // the parent's teardown SIGKILLs every child
  };
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 6'000;
    ProcessTransport transport(3, script, opts);
    transport.CommandAll(kCtlCmdRun);
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)transport.ReadRecord(2);
      FAIL() << "agent 2 cannot report: its peer crashed";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.fault().agent, 1) << e.what();
      EXPECT_NE(std::string(e.what()).find("status 1"), std::string::npos)
          << e.what();
    }
    // The 2 s grace plus slack, well short of the 6 s watchdog.
    EXPECT_LT(ElapsedSeconds(start), 4.5);
  }
  ExpectNoChildrenLeft();
}

TEST(ProcessLifecycle, ChildExceptionArrivesAsStructuredReport) {
  ProcessTransport::ChildMain script = [](AgentId self, Transport& wire,
                                          ControlChannel& ctl) -> int {
    if (self == 0) throw std::runtime_error("boom in agent zero");
    return IdleChild(self, wire, ctl);
  };
  ProcessTransport transport(2, script);
  try {
    (void)transport.ReadRecord(0);
    FAIL() << "a throwing child must not produce a clean record";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().agent, 0);
    EXPECT_NE(std::string(e.what()).find("boom in agent zero"),
              std::string::npos)
        << e.what();
  }
}

TEST(ProcessLifecycle, WatchdogBoundsASilentChild) {
  ProcessTransport::ChildMain script = [](AgentId self, Transport& wire,
                                          ControlChannel& ctl) -> int {
    if (self == 0) {
      // Deadlocked child stand-in: alive but silent.
      for (;;) usleep(100'000);
    }
    return IdleChild(self, wire, ctl);
  };
  const auto start = std::chrono::steady_clock::now();
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 400;
    ProcessTransport transport(2, script, opts);
    EXPECT_THROW((void)transport.ReadRecord(0), TransportError);
  }
  // Watchdog (0.4s) + kill/reap, not a hang until some outer timeout.
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  ExpectNoChildrenLeft();
}

TEST(ProcessLifecycle, NoZombiesAndStableFdTableAcrossCycles) {
  // Warm up any lazy allocations (gtest, stdio) before the baseline.
  {
    ProcessTransport transport(2, IdleChild);
    transport.Shutdown();
  }
  ExpectNoChildrenLeft();
  const int fds_before = CountOpenFds();
  for (int cycle = 0; cycle < 3; ++cycle) {
    ProcessTransport transport(2, IdleChild);
    transport.Shutdown();
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  ExpectNoChildrenLeft();

  // A failed run must clean the table just as thoroughly: crash one
  // child, let the destructor kill and reap the rest.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ProcessTransport::ChildMain script = [](AgentId self, Transport& wire,
                                            ControlChannel& ctl) -> int {
      if (self == 1) _exit(9);
      return IdleChild(self, wire, ctl);
    };
    ProcessTransport transport(2, script);
    EXPECT_THROW((void)transport.ReadRecord(1), TransportError);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  ExpectNoChildrenLeft();
}

}  // namespace
}  // namespace pem::net
