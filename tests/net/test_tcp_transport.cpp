// TcpTransport: the remote deployment over a real network stack.
//
// Four walls, because TCP is the first backend whose transport layer
// can genuinely misbehave:
//   * wire      — frames really cross loopback TCP between processes,
//     accounted by the parent router and byte-matched against the
//     shadow script by each consuming child;
//   * handshake — the rendezvous rejects duplicate agent ids, garbage
//     before the hello, out-of-range ids, and absent agents (connect
//     timeout) with structured errors naming the offender; port 0
//     auto-assign works;
//   * torture   — the stream segments and coalesces frames at will
//     (1-byte writes, many frames per read, frames far larger than a
//     shrunken SO_SNDBUF/SO_RCVBUF), so every short write must be
//     fully retried on both sides of the router;
//   * fault     — a SIGKILLed child or a severed connection mid-window
//     latches a structured TransportFault naming the peer within the
//     watchdog, survivors keep routing, teardown leaves no zombies
//     and a stable fd table.
//
// External (rendezvous-only) mode doubles as the multi-host
// deployment hook: here the "remote agents" are plain test threads
// speaking the client half (ConnectTcpAgent) over real sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/tcp_transport.h"

namespace pem::net {
namespace {

constexpr char kLoopback[] = "127.0.0.1";
constexpr int kDialMs = 20'000;

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

// Test-thread agent plumbing: blocking full write / frame read over a
// raw connected fd (the client half an external agent would run).
void WriteAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    PEM_CHECK(n > 0 || errno == EINTR, "test agent: send failed");
    if (n < 0) continue;
    data += n;
    len -= static_cast<size_t>(n);
  }
}

Message ReadFrameBlocking(int fd, FrameDecoder& rx) {
  for (;;) {
    if (std::optional<Message> m = rx.Next()) return std::move(*m);
    uint8_t buf[4096];
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    PEM_CHECK(n > 0 || errno == EINTR, "test agent: wire closed mid-frame");
    if (n < 0) continue;
    rx.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
}

// Answers the parent's Shutdown command and says goodbye, then hangs
// up — what AgentDriver::Serve does for a real agent.
void AnswerShutdown(ControlChannel& ctl) {
  const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
  PEM_CHECK(cmd.tag == kCtlCmdShutdown, "test agent: expected Shutdown");
  ctl.Write(kCtlRepDone);
}

// --- wire -------------------------------------------------------------

TEST(TcpTransport, RingExchangeCrossesRealTcpSockets) {
  // Each child byte-matches every frame it consumes against its
  // deterministic shadow script, as on the socketpair backend, so a
  // clean run proves every ring frame crossed TCP intact.
  constexpr int kAgents = 3;
  AgentSupervisor::ChildMain script = [](AgentId, Transport& wire,
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

  TcpTransport transport(kAgents, script);
  EXPECT_GT(transport.port(), 0);
  std::vector<Message> seen;
  transport.SetObserver([&seen](const Message& m) { seen.push_back(m); });
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.Shutdown();
  EXPECT_FALSE(transport.fault().has_value());

  // Literal network bytes: each frame crossed child -> router -> child
  // over loopback TCP and was accounted exactly once.
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

TEST(TcpTransport, ShadowVerifyDebugModeAlsoPasses) {
  // The strict byte-match of the socketpair backend, once a TCP debug
  // option and now always on: a two-way exchange with distinct types
  // and payload lengths must still verify frame by frame against the
  // deterministic script under the default options.
  constexpr int kAgents = 2;
  AgentSupervisor::ChildMain script = [](AgentId, Transport& wire,
                                         ControlChannel& ctl) -> int {
    const ControlRecord cmd = ctl.Read(/*timeout_ms=*/60'000);
    PEM_CHECK(cmd.tag == kCtlCmdRun, "test: expected a run command");
    std::vector<Endpoint> eps = wire.endpoints();
    eps[0].Send(1, /*type=*/3, {9, 8, 7});
    eps[1].Send(0, /*type=*/4, {6, 5});
    PEM_CHECK(eps[1].Receive().has_value(), "test: missing message");
    PEM_CHECK(eps[0].Receive().has_value(), "test: missing message");
    ctl.Write(kCtlRepWindow);
    return IdleChild(0, wire, ctl);
  };
  TcpTransport transport(kAgents, script);
  transport.CommandAll(kCtlCmdRun);
  for (AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(transport.ReadRecord(a).tag, kCtlRepWindow);
  }
  transport.Shutdown();
  EXPECT_FALSE(transport.fault().has_value());
  EXPECT_EQ(transport.total_messages(), 2u);
  ExpectNoChildrenLeft();
}

TEST(TcpTransport, MakeTransportRefusesTcpKind) {
  EXPECT_DEATH((void)MakeTransport(TransportKind::kTcp, 3),
               "child entry point");
}

// --- handshake --------------------------------------------------------

TEST(TcpHandshake, ListenerAutoAssignsDistinctPorts) {
  TcpListener a(kLoopback, 0, 4);
  TcpListener b(kLoopback, 0, 4);
  EXPECT_GT(a.port(), 0);
  EXPECT_GT(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(TcpHandshake, ExternalAgentsCompleteRendezvous) {
  // The multi-host hook: agents launched elsewhere (here: threads)
  // dial the advertised port and the parent supervises them exactly
  // like forked children.
  TcpTransport::Options opts;
  TcpTransport transport(2, opts);
  const uint16_t port = transport.port();
  ASSERT_GT(port, 0);

  std::thread alice([port] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 0, kDialMs);
    ControlChannel ctl(s.ctl_fd, 0);
    const Message m{0, 1, /*type=*/21, {1, 2, 3, 4}};
    const std::vector<uint8_t> frame = EncodeFrame(m);
    WriteAll(s.wire_fd, frame.data(), frame.size());
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  std::thread bob([port] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 1, kDialMs);
    ControlChannel ctl(s.ctl_fd, 1);
    FrameDecoder rx;
    const Message m = ReadFrameBlocking(s.wire_fd, rx);
    PEM_CHECK(m.from == 0 && m.to == 1 && m.type == 21 &&
                  m.payload == std::vector<uint8_t>({1, 2, 3, 4}),
              "test agent: wrong frame");
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });

  transport.WaitForAgents();
  transport.Shutdown();
  alice.join();
  bob.join();
  EXPECT_EQ(transport.total_messages(), 1u);
  EXPECT_EQ(transport.total_bytes(), FramedSize(4));
  EXPECT_EQ(transport.stats(0).bytes_sent, FramedSize(4));
  EXPECT_EQ(transport.stats(1).bytes_received, FramedSize(4));
}

TEST(TcpHandshake, DuplicateAgentIdRejected) {
  TcpTransport::Options opts;
  opts.connect_timeout_ms = 10'000;
  TcpTransport transport(2, opts);
  const uint16_t port = transport.port();
  std::thread dialer([port] {
    const int first =
        TcpConnectAndHello(kLoopback, port, kTcpHelloKindWire, 0, kDialMs);
    const int second =
        TcpConnectAndHello(kLoopback, port, kTcpHelloKindWire, 0, kDialMs);
    // Hold both open until rejection; closing early could race the
    // parent's accept.
    usleep(200'000);
    close(first);
    close(second);
  });
  try {
    transport.WaitForAgents();
    FAIL() << "duplicate agent id must fail the rendezvous";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().agent, 0);
    EXPECT_NE(std::string(e.what()).find("duplicate wire connect for agent 0"),
              std::string::npos)
        << e.what();
  }
  dialer.join();
}

TEST(TcpHandshake, ConnectTimeoutNamesTheMissingAgent) {
  TcpTransport::Options opts;
  opts.connect_timeout_ms = 300;
  TcpTransport transport(2, opts);
  const uint16_t port = transport.port();
  std::thread dialer([port] {
    // Agent 0 shows up; agent 1 never does.
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 0, kDialMs);
    usleep(500'000);
    close(s.wire_fd);
    close(s.ctl_fd);
  });
  const auto start = std::chrono::steady_clock::now();
  try {
    transport.WaitForAgents();
    FAIL() << "an absent agent must time the rendezvous out";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("agent 1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  dialer.join();
}

TEST(TcpHandshake, FailedForkedRendezvousLeavesNoChildren) {
  // The forked constructor's rendezvous fails before any child can dial
  // in: the children it already forked must be killed and reaped on the
  // way out, not left running or as zombies.
  TcpTransport::Options opts;
  opts.connect_timeout_ms = 0;
  EXPECT_THROW(TcpTransport(4, IdleChild, opts), TransportError);
  ExpectNoChildrenLeft();
}

TEST(TcpHandshake, GarbageBeforeHelloRejected) {
  TcpTransport::Options opts;
  opts.connect_timeout_ms = 10'000;
  TcpTransport transport(1, opts);
  const uint16_t port = transport.port();
  std::thread dialer([port] {
    const int fd =
        TcpConnectAndHello(kLoopback, port, kTcpHelloKindWire, 0, kDialMs);
    // Overwriting the hello is not possible — so this is a SECOND
    // connection that opens with garbage instead of a hello.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, kLoopback, &addr.sin_addr);
    const int bad = socket(AF_INET, SOCK_STREAM, 0);
    PEM_CHECK(bad >= 0 && connect(bad, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof addr) == 0,
              "test: connect failed");
    const uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef,
                              0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef};
    WriteAll(bad, junk, sizeof junk);
    usleep(200'000);
    close(bad);
    close(fd);
  });
  try {
    transport.WaitForAgents();
    FAIL() << "garbage before the hello must fail the rendezvous";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().code, ErrorCode::kSerialization);
    EXPECT_NE(std::string(e.what()).find("garbage"), std::string::npos)
        << e.what();
  }
  dialer.join();
}

TEST(TcpHandshake, OutOfRangeAgentIdRejected) {
  TcpTransport::Options opts;
  opts.connect_timeout_ms = 10'000;
  TcpTransport transport(1, opts);
  const uint16_t port = transport.port();
  std::thread dialer([port] {
    const int fd =
        TcpConnectAndHello(kLoopback, port, kTcpHelloKindWire, 7, kDialMs);
    usleep(200'000);
    close(fd);
  });
  try {
    transport.WaitForAgents();
    FAIL() << "an out-of-range agent id must fail the rendezvous";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().agent, 7);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  dialer.join();
}

// --- torture ----------------------------------------------------------

TEST(TcpTorture, OneByteWritesReassembleAtTheRouter) {
  TcpTransport::Options opts;
  TcpTransport transport(2, opts);
  const uint16_t port = transport.port();
  std::vector<uint8_t> payload(257);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  const Message sent{0, 1, /*type=*/31, payload};

  std::thread alice([port, &sent] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 0, kDialMs);
    ControlChannel ctl(s.ctl_fd, 0);
    const std::vector<uint8_t> frame = EncodeFrame(sent);
    // Drip the frame one byte per send(): with TCP_NODELAY each write
    // is pushed immediately, so the router's ingress sees a stream cut
    // at arbitrary (mostly 1-byte) boundaries.
    for (const uint8_t b : frame) WriteAll(s.wire_fd, &b, 1);
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  Message got;
  std::thread bob([port, &got] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 1, kDialMs);
    ControlChannel ctl(s.ctl_fd, 1);
    FrameDecoder rx;
    got = ReadFrameBlocking(s.wire_fd, rx);
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  transport.WaitForAgents();
  transport.Shutdown();
  alice.join();
  bob.join();
  EXPECT_TRUE(got == sent);
  EXPECT_EQ(transport.total_bytes(), FramedSize(payload.size()));
}

TEST(TcpTorture, CoalescedFramesAllDecodeInOrder) {
  constexpr int kFrames = 64;
  TcpTransport::Options opts;
  TcpTransport transport(2, opts);
  const uint16_t port = transport.port();

  std::thread alice([port] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 0, kDialMs);
    ControlChannel ctl(s.ctl_fd, 0);
    // One contiguous buffer of many frames: a single router recv()
    // will pull several at once and must decode them all.
    std::vector<uint8_t> burst;
    for (int i = 0; i < kFrames; ++i) {
      std::vector<uint8_t> payload(static_cast<size_t>(i % 7) + 1,
                                   static_cast<uint8_t>(i));
      AppendFrame(burst, Message{0, 1, static_cast<uint32_t>(100 + i),
                                 std::move(payload)});
    }
    WriteAll(s.wire_fd, burst.data(), burst.size());
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  int got = 0;
  bool in_order = true;
  std::thread bob([port, &got, &in_order] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 1, kDialMs);
    ControlChannel ctl(s.ctl_fd, 1);
    FrameDecoder rx;
    for (int i = 0; i < kFrames; ++i) {
      const Message m = ReadFrameBlocking(s.wire_fd, rx);
      if (m.type != static_cast<uint32_t>(100 + i)) in_order = false;
      ++got;
    }
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  transport.WaitForAgents();
  transport.Shutdown();
  alice.join();
  bob.join();
  EXPECT_EQ(got, kFrames);
  EXPECT_TRUE(in_order) << "per-sender FIFO order must survive coalescing";
  EXPECT_EQ(transport.total_messages(), static_cast<uint64_t>(kFrames));
}

TEST(TcpTorture, FramesLargerThanShrunkenSocketBuffersCrossIntact) {
  // SO_SNDBUF/SO_RCVBUF far below one frame force short writes on the
  // sender, the router ingress (PendingBuf + POLLOUT), and short reads
  // everywhere; the frame must still arrive byte-identical.
  constexpr size_t kPayload = 256 * 1024;
  TcpTransport::Options opts;
  opts.socket_buffer_bytes = 4096;
  TcpTransport transport(2, opts);
  const uint16_t port = transport.port();

  std::vector<uint8_t> payload(kPayload);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const Message sent{0, 1, /*type=*/77, payload};

  std::thread alice([port, &sent] {
    const TcpAgentSockets s =
        ConnectTcpAgent(kLoopback, port, 0, kDialMs, /*buffer=*/4096);
    ControlChannel ctl(s.ctl_fd, 0);
    const std::vector<uint8_t> frame = EncodeFrame(sent);
    // The shared retry loop: dozens of short writes before this
    // returns.
    SendAllOrThrow(s.wire_fd, frame.data(), frame.size(), 0, "test agent");
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  Message got;
  std::thread bob([port, &got] {
    const TcpAgentSockets s =
        ConnectTcpAgent(kLoopback, port, 1, kDialMs, /*buffer=*/4096);
    ControlChannel ctl(s.ctl_fd, 1);
    FrameDecoder rx;
    got = ReadFrameBlocking(s.wire_fd, rx);
    AnswerShutdown(ctl);
    close(s.wire_fd);
  });
  transport.WaitForAgents();
  transport.Shutdown();
  alice.join();
  bob.join();
  ASSERT_EQ(got.payload.size(), kPayload);
  EXPECT_TRUE(got == sent) << "large frame corrupted in transit";
  EXPECT_EQ(transport.total_bytes(), FramedSize(kPayload));
  EXPECT_EQ(transport.stats(0).bytes_sent, FramedSize(kPayload));
  EXPECT_EQ(transport.stats(1).bytes_received, FramedSize(kPayload));
}

// --- fault injection --------------------------------------------------

// Two-phase script: phase 0 is where the designated victim dies;
// phase 1 proves the survivors still exchange real frames afterwards.
AgentSupervisor::ChildMain TwoPhaseScript(bool victim_sigkill) {
  return [victim_sigkill](AgentId self, Transport& wire,
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
      if (cmd.payload[0] == 0) {
        if (self == 1 && victim_sigkill) raise(SIGKILL);
        if (self == 1) {
          // Severed-wire victim: the deterministic script says agent 1
          // receives from agent 0 — its recv on the severed socket
          // surfaces the structured fault.
          eps[0].Send(1, /*type=*/50, {1});
          (void)eps[1].Receive();
        }
        ctl.Write(kCtlRepWindow);
      } else {
        // Survivor phase: a real exchange that must still route.
        eps[0].Send(2, /*type=*/51, {4, 2});
        std::optional<Message> m = eps[2].Receive();
        PEM_CHECK(m.has_value() && m->from == 0 && m->type == 51,
                  "test: survivor exchange failed");
        ctl.Write(kCtlRepWindow);
      }
    }
  };
}

TEST(TcpFault, KilledChildMidWindowSurfacesWithinWatchdog) {
  constexpr int kAgents = 3;
  const auto start = std::chrono::steady_clock::now();
  {
    TcpTransport::Options opts;
    opts.watchdog_ms = 10'000;
    TcpTransport transport(kAgents, TwoPhaseScript(/*victim_sigkill=*/true),
                           opts);
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

    // Survivors keep routing after the fault is latched.
    const uint8_t phase1[] = {1};
    transport.Command(0, kCtlCmdRun, phase1);
    transport.Command(2, kCtlCmdRun, phase1);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(transport.ReadRecord(2).tag, kCtlRepWindow);
  }
  // Exit detection, not watchdog expiry (and certainly not a ctest
  // TIMEOUT), drove the whole sequence.
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  ExpectNoChildrenLeft();
}

TEST(TcpFault, SeveredConnectionMidWindowFaultsFast) {
  constexpr int kAgents = 3;
  const auto start = std::chrono::steady_clock::now();
  {
    TcpTransport::Options opts;
    opts.watchdog_ms = 10'000;
    TcpTransport transport(kAgents, TwoPhaseScript(/*victim_sigkill=*/false),
                           opts);
    // The network "partitions" agent 1 away mid-window.
    transport.SeverWireForTest(1);
    const uint8_t phase0[] = {0};
    transport.CommandAll(kCtlCmdRun, phase0);
    EXPECT_EQ(transport.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(transport.ReadRecord(2).tag, kCtlRepWindow);
    try {
      (void)transport.ReadRecord(1);
      FAIL() << "a severed connection must not produce a clean record";
    } catch (const TransportError& e) {
      // The child saw its wire die and reported the structured error
      // over the (still healthy) control channel.
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

TEST(TcpFault, SurvivorBlockedOnCrashedPeerNamesTheCrash) {
  // Agent 1 crashes on Run; agent 2 waits forever on a frame agent 1
  // never sends.  The parent must treat the unclean exit as a
  // conviction: agent 2's read fails within the post-conviction grace,
  // naming agent 1, instead of sitting out the watchdog and blaming the
  // blocked survivor.
  AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
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
    TcpTransport::Options opts;
    opts.watchdog_ms = 6'000;
    TcpTransport transport(3, script, opts);
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

TEST(TcpFault, SlowExternalAgentIsATimeoutNotADisconnect) {
  // An external agent on a distant host may just be slow: the watchdog
  // must surface a ControlTimeout, not claim the peer disconnected
  // (and must not latch a transport fault).
  TcpTransport::Options opts;
  opts.watchdog_ms = 300;
  TcpTransport transport(1, opts);
  const uint16_t port = transport.port();
  std::atomic<bool> release{false};
  std::thread agent([port, &release] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 0, kDialMs);
    // Alive but silent: hold both connections open without reporting.
    while (!release.load()) usleep(5'000);
    close(s.wire_fd);
    close(s.ctl_fd);
  });
  transport.WaitForAgents();
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)transport.ReadRecord(0);
    FAIL() << "a silent agent must time out";
  } catch (const ControlTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog timeout"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(ElapsedSeconds(start), 8.0);
  EXPECT_FALSE(transport.fault().has_value())
      << "a timeout is not a disconnect";
  release.store(true);
  agent.join();
}

TEST(TcpFault, DisconnectedExternalAgentIsReportedAsSuch) {
  TcpTransport::Options opts;
  opts.watchdog_ms = 10'000;
  TcpTransport transport(1, opts);
  const uint16_t port = transport.port();
  std::thread agent([port] {
    const TcpAgentSockets s = ConnectTcpAgent(kLoopback, port, 0, kDialMs);
    // Vanish right after the rendezvous.
    close(s.wire_fd);
    close(s.ctl_fd);
  });
  transport.WaitForAgents();
  agent.join();
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)transport.ReadRecord(0);
    FAIL() << "a vanished agent must not produce a record";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().agent, 0);
    EXPECT_NE(std::string(e.what()).find("disconnected before reporting"),
              std::string::npos)
        << e.what();
  }
  // Hangup detection, not watchdog expiry, drove this.
  EXPECT_LT(ElapsedSeconds(start), 8.0);
}

TEST(TcpFault, NoZombiesAndStableFdTableAcrossCycles) {
  // Warm up any lazy allocations (gtest, stdio, resolver) before the
  // baseline.
  {
    TcpTransport transport(2, IdleChild);
    transport.Shutdown();
  }
  ExpectNoChildrenLeft();
  const int fds_before = CountOpenFds();
  for (int cycle = 0; cycle < 3; ++cycle) {
    TcpTransport transport(2, IdleChild);
    transport.Shutdown();
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  ExpectNoChildrenLeft();

  // A failed run must clean the table just as thoroughly: crash one
  // child, let the destructor kill and reap the rest.
  for (int cycle = 0; cycle < 3; ++cycle) {
    AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
                                           ControlChannel& ctl) -> int {
      if (self == 1) _exit(9);
      return IdleChild(self, wire, ctl);
    };
    TcpTransport transport(2, script);
    EXPECT_THROW((void)transport.ReadRecord(1), TransportError);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  ExpectNoChildrenLeft();
}

}  // namespace
}  // namespace pem::net
