// Frame-layer forgery/replay wall.
//
// The protocol-level audit (test_adversarial.cpp) catches agents that
// cheat INSIDE well-formed frames.  This suite attacks one layer down:
// raw bytes pushed into a transport's ingress path without going
// through Send() — a forged sender id, a corrupt frame or an
// out-of-range recipient on a forked child's single-owner wire into
// the parent's relay router, a shared-memory ring record with a stale
// sequence number, a record squatting in another pair's ring.  Every
// one must surface as a structured TransportFault naming the
// compromised channel — never an abort, never silent acceptance into
// the ledger — while the surviving channels keep flowing.  A
// well-formed frame that differs from the script, or a replayed one,
// passes the parent and is caught by the receiving child, which
// byte-matches each sender's frames in order: the divergence rows below
// assert it reports the sender at once on every forked backend.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/child_transport.h"
#include "net/frame.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"

namespace pem::net {
namespace {

void ExpectNoZombies() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

Message Msg(AgentId from, AgentId to, uint32_t type = 0x1000,
            std::vector<uint8_t> payload = {1, 2, 3, 4}) {
  return Message{from, to, type, std::move(payload)};
}

// The router/snooper threads latch faults asynchronously; poll with a
// deadline far below the ctest timeout.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

std::optional<TransportFault> AwaitFault(const AgentSupervisor& t) {
  WaitFor([&t] { return t.fault().has_value(); });
  return t.fault();
}

// Writes `bytes` raw onto a process child's own wire.
void WriteRaw(Transport& wire, const std::vector<uint8_t>& bytes) {
  static_cast<SocketStream&>(static_cast<ChildTransport&>(wire).wire())
      .WriteWireBytesForTest(bytes);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- ProcessTransport relay-router ingress ---------------------------

// Control commands the injection children obey: agent 1 writes the
// scenario's raw bytes onto its own wire; agents 0 and 2 run a one-frame
// script (0 sends to 2, 2 consumes it byte-matched) and report what 2
// received.  Every child answers each command with a kCtlRepWindow.
constexpr uint8_t kInject = 1;
constexpr uint8_t kExchange = 2;
constexpr AgentId kInjector = 1;

Message SurvivorFrame() { return Msg(0, 2, 0x4000, {5, 6, 7}); }

AgentSupervisor::ChildMain InjectingChild(std::vector<uint8_t> bytes) {
  return [bytes = std::move(bytes)](AgentId self, Transport& wire,
                                    ControlChannel& ctl) -> int {
    for (;;) {
      const ControlRecord rec = ctl.Read(/*timeout_ms=*/120'000);
      if (rec.tag == kCtlCmdShutdown) {
        ctl.Write(kCtlRepDone);
        return 0;
      }
      std::vector<uint8_t> report;
      if (rec.payload.at(0) == kInject) {
        WriteRaw(wire, bytes);
      } else {
        wire.Send(SurvivorFrame());  // real for 0, shadow-only for 2
        if (self == 2) report = EncodeFrame(*wire.Receive(2));
      }
      ctl.Write(kCtlRepWindow, report);
    }
  };
}

// One child writes `bytes` on its wire: the parent's router must latch
// a fault naming that child whose detail contains `expect`, account
// nothing of the bad frame, and keep routing the surviving children.
void ExpectProcessInjectionConvictsOnlyTheInjector(
    const std::vector<uint8_t>& bytes, const std::string& expect) {
  {
    ProcessTransport pt(3, InjectingChild(bytes));
    pt.Command(kInjector, kCtlCmdRun, std::vector<uint8_t>{kInject});
    (void)pt.ReadRecord(kInjector);
    const std::optional<TransportFault> fault = AwaitFault(pt);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->agent, kInjector);
    EXPECT_EQ(fault->code, ErrorCode::kProtocolViolation);
    EXPECT_NE(fault->detail.find(expect), std::string::npos) << fault->detail;
    EXPECT_EQ(pt.total_bytes(), 0u);
    EXPECT_EQ(pt.total_messages(), 0u);

    // Survivors keep flowing after the conviction.
    for (const AgentId a : {0, 2}) {
      pt.Command(a, kCtlCmdRun, std::vector<uint8_t>{kExchange});
    }
    (void)pt.ReadRecord(0);
    const ControlRecord got = pt.ReadRecord(2);
    EXPECT_EQ(got.payload, EncodeFrame(SurvivorFrame()));
    // Exactly the survivors' frame was accounted; the injector's bytes
    // never reached the ledger.
    EXPECT_EQ(pt.total_messages(), 1u);
    EXPECT_EQ(pt.total_bytes(), FramedSize(SurvivorFrame()));
    EXPECT_EQ(pt.stats(kInjector).bytes_sent, 0u);
    EXPECT_EQ(pt.stats(kInjector).bytes_received, 0u);
    pt.Shutdown();
  }
  ExpectNoZombies();
}

TEST(FrameInjection, ProcessForgedSenderIdLatchesStructuredFault) {
  // Agent 1's wire carries a frame claiming to be from agent 2: the
  // wire is single-owner, so the sender id is a forgery.
  ExpectProcessInjectionConvictsOnlyTheInjector(EncodeFrame(Msg(2, 0)),
                                                "forged sender id 2");
}

TEST(FrameInjection, ProcessCorruptChecksumFrameLatchesStructuredFault) {
  std::vector<uint8_t> bytes = EncodeFrame(Msg(kInjector, 0));
  bytes[16] ^= 0xFF;  // first byte of the header checksum
  ExpectProcessInjectionConvictsOnlyTheInjector(bytes, "corrupt frame");
}

TEST(FrameInjection, ProcessOutOfRangeRecipientLatchesStructuredFault) {
  ExpectProcessInjectionConvictsOnlyTheInjector(
      EncodeFrame(Msg(kInjector, 7)), "out-of-range recipient 7");
}

TEST(FrameInjection, ProcessSurvivorBlockedOnConvictedAgentReportsIt) {
  // Agent 1 forges a sender id and then sends agent 2 a real frame;
  // the conviction closes agent 1's wire, so agent 2 waits forever on
  // a frame the router dropped.  The parent must report the conviction
  // (the first cause) within the post-conviction grace, not sit out
  // the watchdog and blame the blocked survivor.
  const Message real = Msg(kInjector, 2, 0x4100, {9});
  AgentSupervisor::ChildMain script = [real](AgentId self, Transport& wire,
                                             ControlChannel& ctl) -> int {
    (void)ctl.Read(/*timeout_ms=*/120'000);  // the one Run command
    if (self == kInjector) {
      WriteRaw(wire, EncodeFrame(Msg(2, 0)));
    }
    if (self != 0) {
      wire.Send(real);  // real for 1, shadow-only for 2
      if (self == 2) (void)wire.Receive(2);
    }
    ctl.Write(kCtlRepWindow);
    for (;;) pause();  // the parent's teardown SIGKILLs every child
  };
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 60'000;
    ProcessTransport pt(3, script, opts);
    pt.CommandAll(kCtlCmdRun);
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)pt.ReadRecord(2);
      FAIL() << "agent 2 cannot report: its frame was never routed";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.fault().agent, kInjector) << e.what();
      EXPECT_NE(std::string(e.what()).find("forged sender id 2"),
                std::string::npos)
          << e.what();
    }
    EXPECT_LT(SecondsSince(start), 5.0);
  }
  ExpectNoZombies();
}

// --- divergence: a plausible frame with the wrong payload -------------

// Agents 0 and 1 script one exchange: 0 sends Scripted() to 1.  What 0
// really puts on the medium is Diverged(): the scripted header (from,
// to, type) with another payload, which only the receiver's byte-match
// can tell apart.
Message Scripted() { return Msg(0, 1, 0x4200, {1, 2, 3}); }
Message Diverged() { return Msg(0, 1, 0x4200, {1, 2, 4}); }

// On the process backend agent 0 writes Diverged() raw on its wire; on
// shm it stays quiescent and the parent writes the record into its ring.
AgentSupervisor::ChildMain DivergingExchange(bool sender_writes_raw) {
  return [sender_writes_raw](AgentId self, Transport& wire,
                             ControlChannel& ctl) -> int {
    (void)ctl.Read(/*timeout_ms=*/120'000);  // the one Run command
    if (self == 0 && sender_writes_raw) WriteRaw(wire, EncodeFrame(Diverged()));
    if (self == 1) {
      wire.Send(Scripted());  // shadow-only: advances 1's script
      (void)wire.Receive(1);
    }
    ctl.Write(kCtlRepWindow);
    for (;;) pause();  // the parent's teardown SIGKILLs every child
  };
}

// The receiver must fail its receive at once and report an error that
// names the sender, well inside the 60 s watchdog.
void ExpectReceiverReportsDivergence(AgentSupervisor& t,
                                     std::chrono::steady_clock::time_point start) {
  try {
    (void)t.ReadRecord(1);
    FAIL() << "agent 1 consumed a frame that differs from its script";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.fault().agent, 1) << e.what();
    EXPECT_NE(std::string(e.what()).find("reported:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("sender 0"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(SecondsSince(start), 5.0);
}

TEST(FrameInjection, ProcessTransportDivergedFrameFailsTheReceiveAtOnce) {
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 60'000;
    ProcessTransport pt(2, DivergingExchange(true), opts);
    const auto start = std::chrono::steady_clock::now();
    pt.CommandAll(kCtlCmdRun);
    ExpectReceiverReportsDivergence(pt, start);
  }
  ExpectNoZombies();
}

TEST(FrameInjection, ProcessTransportReplayedFrameIsRejectedAtQuiescence) {
  // Agent 0 puts the scripted frame on its wire twice in one write;
  // agent 1 consumes one copy and ends its script.  The copy it never
  // consumed fails the child's drain check, which names the sender.
  AgentSupervisor::ChildMain script = [](AgentId self, Transport& wire,
                                         ControlChannel& ctl) -> int {
    (void)ctl.Read(/*timeout_ms=*/120'000);  // the one Run command
    if (self == 0) {
      std::vector<uint8_t> twice = EncodeFrame(Scripted());
      AppendFrame(twice, Scripted());
      WriteRaw(wire, twice);
      for (;;) pause();  // the parent's teardown SIGKILLs every child
    }
    wire.Send(Scripted());  // shadow-only: advances 1's script
    (void)wire.Receive(1);
    return 0;
  };
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 60'000;
    ProcessTransport pt(2, script, opts);
    pt.CommandAll(kCtlCmdRun);
    try {
      (void)pt.ReadRecord(1);
      FAIL() << "agent 1 left a replayed frame unconsumed without a report";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.fault().agent, 1) << e.what();
      EXPECT_NE(std::string(e.what()).find(
                    "never consumed 1 frame(s) from sender 0"),
                std::string::npos)
          << e.what();
    }
  }
  ExpectNoZombies();
}

TEST(FrameInjection, ProcessTransportReplayedFrameAfterDoneIsNamedAtShutdown) {
  // Both children serve Run and Shutdown; agent 0 puts the scripted
  // frame on its wire twice.  Agent 1 consumes one copy, reports its
  // window and its Done, and only then fails its drain check: the Error
  // it writes after Done must be Shutdown's report, not its bare exit
  // status.
  AgentSupervisor::ChildMain serve = [](AgentId self, Transport& wire,
                                        ControlChannel& ctl) -> int {
    for (;;) {
      const ControlRecord rec = ctl.Read(/*timeout_ms=*/120'000);
      if (rec.tag == kCtlCmdShutdown) {
        ctl.Write(kCtlRepDone);
        return 0;
      }
      if (self == 0) {
        std::vector<uint8_t> twice = EncodeFrame(Scripted());
        AppendFrame(twice, Scripted());
        WriteRaw(wire, twice);
      } else {
        wire.Send(Scripted());  // shadow-only: advances 1's script
        (void)wire.Receive(1);
      }
      ctl.Write(kCtlRepWindow);
    }
  };
  {
    ProcessTransport::Options opts;
    opts.watchdog_ms = 60'000;
    ProcessTransport pt(2, serve, opts);
    pt.CommandAll(kCtlCmdRun);
    EXPECT_EQ(pt.ReadRecord(0).tag, kCtlRepWindow);
    EXPECT_EQ(pt.ReadRecord(1).tag, kCtlRepWindow);
    try {
      pt.Shutdown();
      FAIL() << "agent 1 left a replayed frame unconsumed without a report";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.fault().agent, 1) << e.what();
      EXPECT_NE(std::string(e.what()).find(
                    "never consumed 1 frame(s) from sender 0"),
                std::string::npos)
          << e.what();
    }
  }
  ExpectNoZombies();
}

TEST(FrameInjection, ShmFaultDivergedRecordFailsTheReceiveAtOnce) {
  {
    ShmTransport::Options opts;
    opts.watchdog_ms = 60'000;
    ShmTransport shm(2, DivergingExchange(false), opts);
    const auto start = std::chrono::steady_clock::now();
    shm.CommandAll(kCtlCmdRun);
    // Agent 0 never writes its rings, so the parent may produce into
    // ring 0 -> 1 in its place.
    shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Diverged());
    ExpectReceiverReportsDivergence(shm, start);
  }
  ExpectNoZombies();
}

// --- ShmTransport ring ingress ------------------------------------------

// Children that never touch the rings: the adversary writes records
// into the shared mapping directly, and the parent-side snooper is the
// detector under test.  Each scenario shuts the children down first
// (so the single-producer rings are quiescent) and then injects.
AgentSupervisor::ChildMain IdleChild() {
  return [](AgentId, Transport&, ControlChannel& ctl) -> int {
    for (;;) {
      const ControlRecord rec = ctl.Read(/*timeout_ms=*/120'000);
      if (rec.tag == kCtlCmdShutdown) {
        ctl.Write(kCtlRepDone);
        return 0;
      }
    }
  };
}

TEST(FrameInjection, ShmCorruptFrameRecordLatchesStructuredFault) {
  ShmTransport shm(2, IdleChild());
  shm.Shutdown();
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Msg(0, 1),
                              ShmTransport::RecordForgery::kCorruptFrame);
  const std::optional<TransportFault> fault = AwaitFault(shm);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->agent, 0);
  EXPECT_EQ(fault->code, ErrorCode::kProtocolViolation);
  EXPECT_NE(fault->detail.find("fails checksum"), std::string::npos)
      << fault->detail;
  EXPECT_EQ(shm.total_bytes(), 0u);
  ExpectNoZombies();
}

TEST(FrameInjection, ShmRecordInWrongPairsRingIsAForgery) {
  ShmTransport shm(3, IdleChild());
  shm.Shutdown();
  // Ring 0 -> 1 carries a frame claiming the 2 -> 1 pair: the ring
  // IS the sender's identity, so the mismatch convicts ring owner 0.
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Msg(2, 1));
  const std::optional<TransportFault> fault = AwaitFault(shm);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->agent, 0);
  EXPECT_NE(fault->detail.find("frame names pair"), std::string::npos)
      << fault->detail;
  EXPECT_EQ(shm.total_bytes(), 0u);
  ExpectNoZombies();
}

TEST(FrameInjection, ShmStaleSequenceRecordIsAReplay) {
  ShmTransport shm(2, IdleChild());
  shm.Shutdown();
  const Message real = Msg(0, 1);
  // A valid record is snooped and accounted once...
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, real);
  ASSERT_TRUE(WaitFor([&shm, &real] {
    return shm.total_bytes() == FramedSize(real);
  }));
  // ...then the identical record (same sender sequence) again: the
  // snooper has already merged seq 0, so this can only be a replay.
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, real);
  const std::optional<TransportFault> fault = AwaitFault(shm);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->agent, 0);
  EXPECT_NE(fault->detail.find("replayed ring record"), std::string::npos)
      << fault->detail;
  // The replay was not accounted: the ledger still holds one copy.
  EXPECT_EQ(shm.total_bytes(), FramedSize(real));
  ExpectNoZombies();
}

TEST(FrameInjection, ShmDuplicateStashedSequenceIsAReplay) {
  ShmTransport shm(2, IdleChild());
  shm.Shutdown();
  // seq 5 with seq 0..4 missing parks in the reorder stash; a second
  // record with the SAME future sequence is a replay even though the
  // merge never reached it.
  shm.InjectRingRecordForTest(0, 1, /*seq=*/5, Msg(0, 1));
  shm.InjectRingRecordForTest(0, 1, /*seq=*/5, Msg(0, 1));
  const std::optional<TransportFault> fault = AwaitFault(shm);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->agent, 0);
  EXPECT_NE(fault->detail.find("replayed ring record"), std::string::npos)
      << fault->detail;
  ExpectNoZombies();
}

TEST(FrameInjection, ShmFaultCorruptRecordIsReportedByTheReadingChild) {
  // The child that reads a record failing frame decode names the ring's
  // sender in its own error report, rather than aborting and leaving
  // the parent nothing to say but the signal that killed it.
  {
    ShmTransport::Options opts;
    opts.watchdog_ms = 60'000;
    ShmTransport shm(2, DivergingExchange(false), opts);
    shm.CommandAll(kCtlCmdRun);
    shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Scripted(),
                                ShmTransport::RecordForgery::kCorruptFrame);
    try {
      (void)shm.ReadRecord(1);
      FAIL() << "agent 1 consumed a corrupt ring record";
    } catch (const TransportError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.fault().agent, 1) << what;
      EXPECT_NE(what.find("reported:"), std::string::npos) << what;
      EXPECT_NE(what.find("from sender 0 that fails frame decode"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find("signal"), std::string::npos) << what;
    }
  }
  ExpectNoZombies();
}

TEST(FrameInjection, ShmSurvivingRingsKeepAccountingAfterFault) {
  ShmTransport shm(3, IdleChild());
  shm.Shutdown();
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Msg(0, 1),
                              ShmTransport::RecordForgery::kCorruptFrame);
  ASSERT_TRUE(WaitFor([&shm] { return shm.fault().has_value(); }));
  // The compromised ring is convicted, but the other senders' rings
  // still feed the ledger.
  const Message honest = Msg(2, 1, 0x3000, {7});
  shm.InjectRingRecordForTest(2, 1, /*seq=*/0, honest);
  EXPECT_TRUE(WaitFor([&shm, &honest] {
    return shm.total_bytes() == FramedSize(honest);
  }));
  EXPECT_EQ(shm.stats(2).bytes_sent, FramedSize(honest));
  ExpectNoZombies();
}

TEST(FrameInjection, ShmFaultLyingRecordLengthLatchesStructuredFault) {
  ShmTransport shm(3, IdleChild());
  shm.Shutdown();
  // Ring 0 -> 1's header claims 4096 frame bytes it never published:
  // the record boundaries of that ring can no longer be trusted, so the
  // whole ring is convicted, including the honest-looking record after.
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Msg(0, 1),
                              ShmTransport::RecordForgery::kLyingLength);
  const std::optional<TransportFault> fault = AwaitFault(shm);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->agent, 0);
  EXPECT_EQ(fault->code, ErrorCode::kProtocolViolation);
  EXPECT_NE(fault->detail.find("does not hold"), std::string::npos)
      << fault->detail;
  shm.InjectRingRecordForTest(0, 1, /*seq=*/1, Msg(0, 1));
  // The surviving ring 2 -> 1 keeps accounting.
  const Message honest = Msg(2, 1, 0x3000, {7});
  shm.InjectRingRecordForTest(2, 1, /*seq=*/0, honest);
  EXPECT_TRUE(WaitFor([&shm, &honest] {
    return shm.total_bytes() == FramedSize(honest);
  }));
  // Every ring drains, the convicted one unread.
  shm.SyncLedger();
  EXPECT_EQ(shm.total_bytes(), FramedSize(honest));
  EXPECT_EQ(shm.total_messages(), 1u);
  EXPECT_EQ(shm.stats(0).bytes_sent, 0u);
  EXPECT_EQ(shm.stats(2).bytes_sent, FramedSize(honest));
  ExpectNoZombies();
}

TEST(FrameInjection, ShmFaultShortHeaderConvictsTheRingAtOnce) {
  ShmTransport::Options opts;
  opts.watchdog_ms = 1000;
  ShmTransport shm(3, IdleChild(), opts);
  shm.Shutdown();
  // Ring 0 -> 1 publishes 8 bytes, half a record header.  Records are
  // published whole, so no honest writer leaves that: the snooper
  // convicts the ring instead of waiting for the rest, and the ledger
  // syncs well inside the watchdog.
  const auto start = std::chrono::steady_clock::now();
  shm.InjectRingRecordForTest(0, 1, /*seq=*/0, Msg(0, 1),
                              ShmTransport::RecordForgery::kShortHeader);
  const Message honest = Msg(2, 1, 0x3000, {7});
  shm.InjectRingRecordForTest(2, 1, /*seq=*/0, honest);
  shm.SyncLedger();
  const std::optional<TransportFault> fault = AwaitFault(shm);
  EXPECT_LT(SecondsSince(start), 0.5);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->agent, 0);
  EXPECT_EQ(fault->code, ErrorCode::kProtocolViolation);
  EXPECT_NE(fault->detail.find("short of a record header"), std::string::npos)
      << fault->detail;
  EXPECT_EQ(shm.total_bytes(), FramedSize(honest));
  EXPECT_EQ(shm.stats(0).bytes_sent, 0u);
  ExpectNoZombies();
}

}  // namespace
}  // namespace pem::net
