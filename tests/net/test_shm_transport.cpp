// ShmTransport: the co-located zero-copy deployment.
//
// Mirrors the process transport wall for the transport that replaces the
// kernel with shared memory:
//   * wire     — frames really cross the per-pair SPSC rings between
//     forked processes, accounted exactly once by the parent snooper
//     and byte-matched by each consuming child, with the observer
//     transcript in exact per-sender send order (the seq-merge);
//   * pressure — rings far smaller than the traffic force constant
//     backpressure and wraparound, and a frame close to the ring's
//     size still crosses intact;
//   * fault    — a SIGKILLed child mid-window latches a structured
//     TransportFault naming the agent and signal within the watchdog,
//     survivors keep exchanging through their own rings, and teardown
//     leaves no zombies, a stable fd table, AND a stable shared-mapping
//     count (the mmap region must not leak across cycles);
//   * ledger   — SyncLedger drains the accounting tap to the write
//     cursors, so the parent ledger equals the canonical per-copy
//     accounting even though no frame ever crossed the parent.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/shm_transport.h"

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

// Shared mappings in /proc/self/maps (the fourth permission letter is
// 's'): a leaked shm region shows up here even though it costs no file
// descriptor.  Only shared ones are counted, because the sanitizers'
// allocators and per-thread shadows grow the private mappings of a
// process that leaks nothing.
int CountSharedMappings() {
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  EXPECT_NE(f, nullptr);
  int shared = 0;
  char line[4096];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const char* perms = std::strchr(line, ' ');
    if (perms != nullptr && perms[4] == 's') ++shared;
  }
  std::fclose(f);
  return shared;
}

void ExpectNoChildrenLeft() {
  int status = 0;
  errno = 0;
  const pid_t r = waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(r, -1) << "an unreaped child (pid " << r << ") survived teardown";
  EXPECT_EQ(errno, ECHILD);
}

double ElapsedSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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

// --- wire -------------------------------------------------------------

AgentSupervisor::ChildMain RingScript() {
  return [](AgentId, Transport& wire, ControlChannel& ctl) -> int {
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
}

TEST(ShmTransport, RingExchangeCrossesSharedMemory) {
  constexpr int kAgents = 3;
  ShmTransport transport(kAgents, RingScript());
  std::vector<Message> seen;
  transport.SetObserver([&seen](const Message& m) { seen.push_back(m); });
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  // The parent never sat between the peers: the ledger fills from the
  // snoop cursors, which may trail delivery until synced.
  transport.SyncLedger();
  transport.Shutdown();
  EXPECT_FALSE(transport.fault().has_value());

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

TEST(ShmTransport, MakeTransportRefusesShmKind) {
  EXPECT_DEATH((void)MakeTransport(TransportKind::kShm, 3),
               "child entry point");
}

TEST(ShmTransport, BroadcastFansOutPerRecipientCopies) {
  constexpr int kAgents = 4;
  AgentSupervisor::ChildMain script = [](AgentId, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    std::vector<Endpoint> eps = wire.endpoints();
    eps[0].Send(kBroadcast, /*type=*/9, {1, 2, 3});
    for (AgentId a = 1; a < wire.num_agents(); ++a) {
      std::optional<Message> m = eps[static_cast<size_t>(a)].Receive();
      PEM_CHECK(m.has_value() && m->from == 0 && m->to == a && m->type == 9,
                "test: broadcast copy wrong");
    }
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };
  ShmTransport transport(kAgents, script);
  std::vector<Message> seen;
  transport.SetObserver([&seen](const Message& m) { seen.push_back(m); });
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.SyncLedger();
  transport.Shutdown();
  // One copy per recipient, accounted like a real broadcast over
  // unicast links — and observed in recipient order (the sender's seq
  // numbers the copies, the snooper merges them back).
  EXPECT_EQ(transport.total_messages(), static_cast<uint64_t>(kAgents - 1));
  EXPECT_EQ(transport.total_bytes(), (kAgents - 1) * FramedSize(3));
  EXPECT_EQ(transport.stats(0).bytes_sent, (kAgents - 1) * FramedSize(3));
  ASSERT_EQ(seen.size(), static_cast<size_t>(kAgents - 1));
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].to, static_cast<AgentId>(i + 1));
  }
  ExpectNoChildrenLeft();
}

TEST(ShmTransport, ObserverSeesExactPerSenderSendOrder) {
  // A sender alternating recipients spreads its frames across several
  // rings; ring position alone cannot reconstruct its send order.  The
  // per-record sequence number must: the observed transcript for the
  // sender has to be EXACTLY its send order, interleaved recipients
  // and all.
  constexpr int kAgents = 3;
  constexpr int kRounds = 50;
  AgentSupervisor::ChildMain script = [](AgentId, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    std::vector<Endpoint> eps = wire.endpoints();
    for (int i = 0; i < kRounds; ++i) {
      // Recipient alternates 1, 2, 1, 2, ... while the type encodes
      // the global send index.
      eps[0].Send(1 + (i % 2), static_cast<uint32_t>(1000 + i),
                  {static_cast<uint8_t>(i)});
    }
    for (int i = 0; i < kRounds; ++i) {
      std::optional<Message> m =
          eps[static_cast<size_t>(1 + (i % 2))].Receive();
      PEM_CHECK(m.has_value() &&
                    m->type == static_cast<uint32_t>(1000 + i),
                "test: per-ring FIFO order broken");
    }
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };
  ShmTransport transport(kAgents, script);
  std::vector<Message> seen;
  transport.SetObserver([&seen](const Message& m) { seen.push_back(m); });
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.SyncLedger();
  transport.Shutdown();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kRounds));
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)].type,
              static_cast<uint32_t>(1000 + i))
        << "snooper transcript diverged from send order at " << i;
    EXPECT_EQ(seen[static_cast<size_t>(i)].to, 1 + (i % 2));
  }
  ExpectNoChildrenLeft();
}

// --- pressure ---------------------------------------------------------

TEST(ShmPressure, TinyRingsForceBackpressureAndWraparound) {
  // 4 KiB rings, ~200 KiB of traffic per directed pair: every ring
  // wraps dozens of times and the writers repeatedly park on the space
  // doorbell until reader AND snooper catch up.  Count and content are
  // fully verified child-side; the ledger must account every copy.
  constexpr int kAgents = 2;
  constexpr int kFrames = 400;
  constexpr size_t kPayload = 500;
  AgentSupervisor::ChildMain script = [](AgentId, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    std::vector<Endpoint> eps = wire.endpoints();
    for (int i = 0; i < kFrames; ++i) {
      std::vector<uint8_t> payload(kPayload);
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<uint8_t>(j * 3 + i);
      }
      // 0 -> 1 then 1 -> 0, strictly alternating so both processes
      // must make progress for either to finish.
      eps[0].Send(1, static_cast<uint32_t>(i), payload);
      std::optional<Message> m = eps[1].Receive();
      PEM_CHECK(m.has_value() && m->type == static_cast<uint32_t>(i) &&
                    m->payload == payload,
                "test: frame corrupted under backpressure");
      eps[1].Send(0, static_cast<uint32_t>(i), payload);
      m = eps[0].Receive();
      PEM_CHECK(m.has_value() && m->payload == payload,
                "test: reply corrupted under backpressure");
    }
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };
  ShmTransport::Options opts;
  opts.ring_bytes = 4096;
  ShmTransport transport(kAgents, script, opts);
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.SyncLedger();
  transport.Shutdown();
  EXPECT_EQ(transport.total_messages(), 2u * kFrames);
  EXPECT_EQ(transport.total_bytes(), 2u * kFrames * FramedSize(kPayload));
  ExpectNoChildrenLeft();
}

TEST(ShmPressure, FrameNearlyTheRingSizeCrossesIntact) {
  constexpr int kAgents = 2;
  constexpr size_t kRing = 64 * 1024;
  // Largest payload that fits: ring header (16) + frame header (20)
  // must fit alongside; leave a margin.
  constexpr size_t kPayload = kRing - 256;
  AgentSupervisor::ChildMain script = [](AgentId, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    std::vector<Endpoint> eps = wire.endpoints();
    std::vector<uint8_t> payload(kPayload);
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<uint8_t>(j * 31 + 7);
    }
    eps[0].Send(1, /*type=*/77, payload);
    std::optional<Message> m = eps[1].Receive();
    PEM_CHECK(m.has_value() && m->payload == payload,
              "test: near-ring-size frame corrupted");
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };
  ShmTransport::Options opts;
  opts.ring_bytes = kRing;
  ShmTransport transport(kAgents, script, opts);
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.SyncLedger();
  transport.Shutdown();
  EXPECT_EQ(transport.total_bytes(), FramedSize(kPayload));
  ExpectNoChildrenLeft();
}

// --- fault injection --------------------------------------------------

// Two-phase script: phase 0 is where the designated victim dies;
// phase 1 proves the survivors still exchange real frames afterwards.
AgentSupervisor::ChildMain TwoPhaseScript() {
  return [](AgentId self, Transport& wire, ControlChannel& ctl) -> int {
    std::vector<Endpoint> eps = wire.endpoints();
    for (;;) {
      const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
      if (cmd.tag == kCtlCmdShutdown) {
        ctl.Write(kCtlRepDone);
        return 0;
      }
      PEM_CHECK(cmd.tag == kCtlCmdRun && cmd.payload.size() == 1,
                "test: bad command");
      if (cmd.payload[0] == 0) {
        if (self == 1) raise(SIGKILL);
        ctl.Write(kCtlRepWindow);
      } else {
        // Survivor phase: a real exchange through rings that do not
        // involve the dead agent.
        eps[0].Send(2, /*type=*/51, {4, 2});
        std::optional<Message> m = eps[2].Receive();
        PEM_CHECK(m.has_value() && m->from == 0 && m->type == 51,
                  "test: survivor exchange failed");
        ctl.Write(kCtlRepWindow);
      }
    }
  };
}

TEST(ShmFault, KilledChildMidWindowSurfacesWithinWatchdog) {
  constexpr int kAgents = 3;
  const auto start = std::chrono::steady_clock::now();
  {
    ShmTransport::Options opts;
    opts.watchdog_ms = 10'000;
    ShmTransport transport(kAgents, TwoPhaseScript(), opts);
    const uint8_t phase0[] = {0};
    transport.CommandAll(kCtlCmdRun, phase0);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(transport.ReadRecord(2).tag, kCtlRepWindow);
    try {
      (void)transport.ReadRecord(1);
      FAIL() << "a SIGKILLed child must not produce a record";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.fault().agent, 1);
      EXPECT_NE(std::string(e.what()).find("signal 9"), std::string::npos)
          << e.what();
    }
    ASSERT_TRUE(transport.fault().has_value());
    EXPECT_EQ(transport.fault()->agent, 1);
    EXPECT_TRUE(transport.reaped(1));

    // Survivors keep exchanging through shared memory after the fault
    // is latched — their rings never involved the victim.
    const uint8_t phase1[] = {1};
    transport.Command(0, kCtlCmdRun, phase1);
    transport.Command(2, kCtlCmdRun, phase1);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(transport.ReadRecord(2).tag, kCtlRepWindow);
    transport.SyncLedger();
    EXPECT_EQ(transport.total_messages(), 1u);
    EXPECT_EQ(transport.total_bytes(), FramedSize(2));
  }
  // Exit detection, not watchdog expiry (and certainly not a ctest
  // TIMEOUT), drove the whole sequence — destructor teardown included.
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  ExpectNoChildrenLeft();
}

TEST(ShmFault, SurvivorBlockedOnCrashedPeerNamesTheCrash) {
  // Agent 1 crashes on Run; agent 2 waits forever on agent 1's ring for
  // a frame agent 1 never writes.  Shm frames never cross the parent,
  // so no wire hangup reveals the crash: the supervisor must find it by
  // its pidfd, fail agent 2's read within the post-conviction grace
  // naming agent 1, and not sit out the watchdog blaming agent 2.
  AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
                                         ControlChannel& ctl) -> int {
    (void)ctl.Read(/*timeout_ms=*/60'000);  // the one Run command
    if (self == 1) _exit(1);
    if (self == 2) {
      // The script's send from agent 1 (shadow only here), then the
      // real ring read that agent 1's crash leaves blocked.
      wire.Send(Message{1, 2, /*type=*/0x4100, {9}});
      (void)wire.Receive(2);
    }
    ctl.Write(kCtlRepWindow);
    for (;;) pause();  // the parent's teardown SIGKILLs every child
  };
  {
    ShmTransport::Options opts;
    opts.watchdog_ms = 6'000;
    ShmTransport transport(3, script, opts);
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

TEST(ShmFault, ChildReportedErrorNamesTheScriptDivergence) {
  // A child whose protocol throws reports a structured Error record
  // (not a crash): the parent surfaces it verbatim, naming the agent.
  constexpr int kAgents = 2;
  AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    if (self == 1) {
      throw TransportError(TransportFault{
          1, ErrorCode::kProtocolViolation, "deliberate test failure"});
    }
    return IdleChild(self, wire, ctl);
  };
  ShmTransport transport(kAgents, script);
  transport.CommandAll(kCtlCmdRun);
  try {
    (void)transport.ReadRecord(1);
    FAIL() << "a throwing child must not produce a clean record";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().agent, 1);
    EXPECT_NE(std::string(e.what()).find("deliberate test failure"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShmFault, SilentChildIsATimeoutNotADisconnect) {
  // Alive but slow must surface as ControlTimeout, exactly like the
  // other supervised backends.
  constexpr int kAgents = 1;
  AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    // Never report; just idle until shutdown.
    return IdleChild(self, wire, ctl);
  };
  ShmTransport::Options opts;
  opts.watchdog_ms = 300;
  ShmTransport transport(kAgents, script, opts);
  transport.CommandAll(kCtlCmdRun);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)transport.ReadRecord(0);
    FAIL() << "a silent child must time out";
  } catch (const ControlTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog timeout"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  EXPECT_FALSE(transport.fault().has_value())
      << "a timeout is not a disconnect";
  transport.Shutdown();
  ExpectNoChildrenLeft();
}

TEST(ShmFault, NoZombiesStableFdsAndStableMappingsAcrossCycles) {
  // Warm up any lazy allocations (gtest, stdio, malloc arenas) before
  // the baselines.
  {
    ShmTransport transport(2, IdleChild);
    transport.Shutdown();
  }
  ExpectNoChildrenLeft();
  const int fds_before = CountOpenFds();
  const int maps_before = CountSharedMappings();
  for (int cycle = 0; cycle < 3; ++cycle) {
    ShmTransport transport(2, IdleChild);
    transport.Shutdown();
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  EXPECT_EQ(CountSharedMappings(), maps_before) << "the shm region leaked";
  ExpectNoChildrenLeft();

  // A failed run must clean up just as thoroughly: crash one child,
  // let the destructor kill and reap the rest and unmap the region.
  for (int cycle = 0; cycle < 3; ++cycle) {
    AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
                                           ControlChannel& ctl) -> int {
      if (self == 1) _exit(9);
      return IdleChild(self, wire, ctl);
    };
    ShmTransport transport(2, script);
    EXPECT_THROW((void)transport.ReadRecord(1), TransportError);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  EXPECT_EQ(CountSharedMappings(), maps_before)
      << "a failed run leaked the region";
  ExpectNoChildrenLeft();
}

// --- options validation -----------------------------------------------

TEST(ShmOptions, NonPowerOfTwoRingSizeDies) {
  ShmTransport::Options opts;
  opts.ring_bytes = 5000;
  EXPECT_DEATH((void)ShmTransport(1, IdleChild, opts), "power of two");
}

}  // namespace
}  // namespace pem::net
