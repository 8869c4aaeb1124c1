// ProcessTransport: true multi-process agents over inherited
// socketpairs.
//
// Covers the wire path (frames really cross the kernel between forked
// processes, accounted by the parent router), the router's stream
// handling (a frame dripped one byte per write, a burst of frames in
// one write, a frame far larger than a socket buffer), the control
// plane, and — the part that pages people at 3am — child lifecycle: a
// crashed child or a severed wire surfaces a structured error naming
// the agent within the watchdog, teardown leaves no zombie processes
// (asserted via waitpid) and no leaked descriptors (asserted by
// counting /proc/self/fd across construct/destroy cycles).
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <vector>

#include "net/child_transport.h"
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

// --- the router's stream handling ------------------------------------

// Writes `bytes` raw onto a child's own wire, bypassing its shadow:
// how a test shapes the stream the router reads.
void WriteRaw(Transport& wire, std::span<const uint8_t> bytes) {
  static_cast<SocketStream&>(static_cast<ChildTransport&>(wire).wire())
      .WriteWireBytesForTest(bytes);
}

// Agent 0 writes the encoding of `frames` raw onto its wire in pieces
// of at most `piece` bytes; agent 1 receives every frame, each
// byte-matched against its script, and reports them re-encoded.
// Returns that report after a clean shutdown, with the router's ledger
// checked against the stream.
std::vector<uint8_t> CrossRawStream(const std::vector<Message>& frames,
                                    size_t piece) {
  std::vector<uint8_t> stream;
  for (const Message& m : frames) AppendFrame(stream, m);
  ProcessTransport::ChildMain script =
      [&frames, &stream, piece](AgentId self, Transport& wire,
                                ControlChannel& ctl) -> int {
    (void)ctl.Read(/*timeout_ms=*/60'000);  // the one Run command
    std::vector<uint8_t> report;
    if (self == 0) {
      for (size_t off = 0; off < stream.size(); off += piece) {
        WriteRaw(wire, std::span<const uint8_t>(stream).subspan(
                           off, std::min(piece, stream.size() - off)));
      }
    } else {
      for (const Message& m : frames) {
        wire.Send(m);  // shadow-only: advances 1's script
        AppendFrame(report, *wire.Receive(1));
      }
    }
    ctl.Write(kCtlRepWindow, report);
    return IdleChild(self, wire, ctl);
  };
  std::vector<uint8_t> got;
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 20'000;
    ProcessTransport transport(2, script, opts);
    transport.CommandAll(kCtlCmdRun);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    got = transport.ReadRecord(1).payload;
    transport.Shutdown();
    EXPECT_FALSE(transport.fault().has_value());
    EXPECT_EQ(transport.total_messages(), frames.size());
    EXPECT_EQ(transport.total_bytes(), stream.size());
    EXPECT_EQ(transport.stats(0).bytes_sent, stream.size());
    EXPECT_EQ(transport.stats(1).bytes_received, stream.size());
  }
  ExpectNoChildrenLeft();
  return got;
}

TEST(ProcessTransport, OneByteWritesReassembleAtTheRouter) {
  // One byte per send(): the router's ingress sees the stream cut at
  // arbitrary, mostly one-byte boundaries and must reassemble it.
  std::vector<uint8_t> payload(257);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  const Message sent{0, 1, /*type=*/31, payload};
  EXPECT_EQ(CrossRawStream({sent}, /*piece=*/1), EncodeFrame(sent));
}

TEST(ProcessTransport, CoalescedFramesAllDecodeInOrder) {
  // One write of 64 frames: a single router recv() pulls several at
  // once and must decode them all, keeping the sender's FIFO order.
  std::vector<Message> frames;
  std::vector<uint8_t> burst;
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> payload(static_cast<size_t>(i % 7) + 1,
                                 static_cast<uint8_t>(i));
    frames.push_back(Message{0, 1, static_cast<uint32_t>(100 + i),
                             std::move(payload)});
    AppendFrame(burst, frames.back());
  }
  EXPECT_EQ(CrossRawStream(frames, /*piece=*/burst.size()), burst);
}

TEST(ProcessTransport, FramesLargerThanTheSocketBufferCrossIntact) {
  // A 4 MiB frame, many times a socketpair's default buffer (about
  // 208 KiB): the sender's write, the router's ingress and its flush
  // toward the receiver (PendingBuf, resumed on EPOLLOUT) all go in
  // pieces, and the frame must still arrive byte-identical.
  constexpr size_t kPayload = size_t{4} << 20;
  static_assert(kPayload < kMaxFramePayloadBytes);
  std::vector<uint8_t> payload(kPayload);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const Message sent{0, 1, /*type=*/77, std::move(payload)};
  const std::vector<uint8_t> frame = EncodeFrame(sent);
  EXPECT_TRUE(CrossRawStream({sent}, /*piece=*/frame.size()) == frame)
      << "large frame corrupted in transit";
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

TEST(ProcessLifecycle, SeveredWireMidWindowFaultsFast) {
  // Phase 0: the parent severs agent 1's wire, and agent 1's script
  // receives a frame from agent 0 on it.  Phase 1: the survivors
  // exchange a real frame.
  ProcessTransport::ChildMain script = [](AgentId self, Transport& wire,
                                          ControlChannel& ctl) -> int {
    std::vector<Endpoint> eps = wire.endpoints();
    for (;;) {
      const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
      if (cmd.tag == kCtlCmdShutdown) {
        ctl.Write(kCtlRepDone);
        return 0;
      }
      PEM_CHECK(cmd.tag == kCtlCmdRun && cmd.payload.size() == 1,
                "test: bad command");
      if (cmd.payload[0] == 0 && self == 1) {
        // The script's send from agent 0 (shadow only here), then the
        // real read on the severed wire: a structured error.
        eps[0].Send(1, /*type=*/50, {1});
        (void)eps[1].Receive();
      } else if (cmd.payload[0] == 1) {
        eps[0].Send(2, /*type=*/51, {4, 2});
        std::optional<Message> m = eps[2].Receive();
        PEM_CHECK(m.has_value() && m->from == 0 && m->type == 51,
                  "test: survivor exchange failed");
      }
      ctl.Write(kCtlRepWindow);
    }
  };
  const auto start = std::chrono::steady_clock::now();
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 10'000;
    ProcessTransport transport(3, script, opts);
    transport.SeverWireForTest(1);
    const uint8_t phase0[] = {0};
    transport.CommandAll(kCtlCmdRun, phase0);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(transport.ReadRecord(2).tag, kCtlRepWindow);
    try {
      (void)transport.ReadRecord(1);
      FAIL() << "a severed wire must not produce a clean record";
    } catch (const TransportError& e) {
      // The child saw its wire die and reported the structured error
      // over its (still healthy) control channel.
      EXPECT_EQ(e.fault().agent, 1);
      EXPECT_NE(std::string(e.what()).find("agent 1"), std::string::npos)
          << e.what();
    }
    ASSERT_TRUE(transport.fault().has_value());
    EXPECT_EQ(transport.fault()->agent, 1);

    // Survivors keep routing around the severed peer.
    const uint8_t phase1[] = {1};
    transport.Command(0, kCtlCmdRun, phase1);
    transport.Command(2, kCtlCmdRun, phase1);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(transport.ReadRecord(2).tag, kCtlRepWindow);
  }
  EXPECT_LT(ElapsedSeconds(start), 8.0);
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

// Each child reports how many descriptors it holds, then idles.
int FdCountingChild(AgentId self, Transport& wire, ControlChannel& ctl) {
  uint8_t count[4];
  StoreU32(count, static_cast<uint32_t>(CountOpenFds()));
  ctl.Write(kCtlRepWindow, count);
  return IdleChild(self, wire, ctl);
}

// The descriptor count every child of an n-agent ProcessTransport reports.
std::vector<int> ChildFdCounts(int n) {
  ProcessTransport transport(n, FdCountingChild);
  std::vector<int> counts;
  for (AgentId a = 0; a < n; ++a) {
    const ControlRecord rec = transport.ReadRecord(a);
    counts.push_back(static_cast<int>(LoadU32(rec.payload.data())));
  }
  transport.Shutdown();
  return counts;
}

TEST(ProcessLifecycle, ChildHoldsOnlyItsOwnDescriptors) {
  // A child inherits what this process held before the launch plus its
  // own wire and control ends: no sibling's end, no pidfd, no wake
  // pipe.  So every child holds the same count, whatever n is.
  const int inherited = CountOpenFds();
  const std::vector<int> two = ChildFdCounts(2);
  const std::vector<int> six = ChildFdCounts(6);
  EXPECT_EQ(two[0], inherited + 2);
  for (const int count : two) EXPECT_EQ(count, two[0]);
  for (const int count : six) EXPECT_EQ(count, two[0]);
  ExpectNoChildrenLeft();
}

}  // namespace
}  // namespace pem::net
