// Adversarial + churn scenario wall.
//
// §VI's security argument is only worth reproducing if an ACTIVE
// cheater is actually caught — on every backend, with the honest
// survivors unharmed.  This suite drives the protocol/audit.h cheat
// detection engine and the dynamic-membership machinery through the
// full transport matrix:
//
//   * every scripted cheat class (mis-encrypted contribution,
//     commitment mismatch, replayed contribution, forged byte count)
//     is detected and NAMED — identical structured ProtocolFault — on
//     serial (1 and 4 threads) / process / shm;
//   * the window still completes for the honest survivors: the cheater
//     is excluded mid-window and the coalitions re-form without it;
//   * honest agents' wire bytes are byte-identical to a cheat-free run
//     (the audit draws all randomness from side streams, never the
//     protocol RNG — a cheater cannot perturb a bystander's traffic);
//   * key equivocation and forged window reports — the two cheats that
//     cannot be survived by exclusion — end the window with a
//     ProtocolError naming the cheater, on the in-process and forked
//     backends alike;
//   * membership churn (leaves, rejoins) re-forms rings
//     deterministically over a full simulated day, with the per-window
//     ledger still balancing on every backend;
//   * no forked run leaves a zombie behind, even when it ends in a
//     detected cheat.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "net/transport.h"
#include "protocol/agent_driver.h"
#include "protocol/audit.h"
#include "protocol/key_directory.h"
#include "protocol/pem_protocol.h"

namespace pem {
namespace {

using protocol::CheatClass;

// Same fixed six-agent market the transcript-parity wall uses; the
// g/l values pin the roles, so the tests can name a cheater that is
// guaranteed to be a market participant.  Sellers: 0, 1, 5; buyers:
// 2, 3, 4.
market::AgentWindowInput Agent(double g, double l, double k = 1.0) {
  market::AgentWindowInput in;
  in.params.preference_k = k;
  in.params.battery_epsilon = 0.9;
  in.state.generation_kwh = g;
  in.state.load_kwh = l;
  return in;
}

const std::vector<market::AgentWindowInput> kMarket = {
    Agent(1.7, 0.3, 0.83), Agent(0.9, 0.2, 1.21), Agent(0.0, 1.4),
    Agent(0.1, 0.8),       Agent(0.0, 0.6),       Agent(2.2, 0.4, 1.05),
};

constexpr net::AgentId kAuditor = 0;  // seller; pinned by the tests
constexpr net::AgentId kCheater = 2;  // buyer; scripted to misbehave

// Every forked test ends with this: a supervisor that shut down (or
// died trying) must have reaped every child it ever forked.
void ExpectNoZombies() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

protocol::PemConfig AuditedConfig(protocol::CheatPlan cheat = {}) {
  protocol::PemConfig cfg;
  cfg.key_bits = 128;
  cfg.audit.enabled = true;
  cfg.audit.fixed_auditor = kAuditor;
  cfg.cheat = cheat;
  return cfg;
}

struct AdvRun {
  std::vector<net::Message> messages;
  protocol::WindowRecord record;
};

// One audited window on an in-process backend.  `inactive` marks
// parties that left before the window (the churned-out clean-run
// baseline the byte-identity rows compare against).
AdvRun RunAuditedWindow(const net::ExecutionPolicy& policy,
                        const protocol::PemConfig& cfg, uint64_t seed = 42,
                        const std::vector<net::AgentId>& inactive = {}) {
  AdvRun run;
  std::unique_ptr<net::Transport> bus = net::MakeTransport(
      policy.transport_kind, static_cast<int>(kMarket.size()));
  std::vector<net::Endpoint> eps = bus->endpoints();
  bus->SetObserver(
      [&run](const net::Message& m) { run.messages.push_back(m); });
  crypto::DeterministicRng rng(seed);
  protocol::KeyDirectory directory;
  std::vector<protocol::Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
    for (net::AgentId a : inactive) {
      if (a == parties.back().id()) parties.back().SetActive(false);
    }
    parties.back().BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
  }
  protocol::ProtocolContext ctx{eps,    rng, cfg, nullptr,
                                policy, &directory};
  run.record = protocol::RunPemWindow(ctx, parties, /*window=*/0).record;
  return run;
}

// The same audited window with one forked OS process per agent.  The
// cheat plan rides in the fork-copied config, so every child replays
// the identical misbehavior and derives the identical verdict — which
// RunForkedWindow then cross-checks bit for bit.
AdvRun RunAuditedWindowForked(net::TransportKind kind,
                              const protocol::PemConfig& cfg,
                              uint64_t seed = 42) {
  AdvRun run;
  const net::ExecutionPolicy policy{kind, 1};
  crypto::DeterministicRng rng(seed);
  protocol::KeyDirectory directory;
  std::vector<protocol::Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
  }

  net::AgentSupervisor::ChildMain child_main =
      [&cfg, &policy, &rng, &parties, &directory](
          net::AgentId self, net::Transport& wire,
          net::ControlChannel& ctl) -> int {
    std::vector<net::Endpoint> eps = wire.endpoints();
    protocol::ProtocolContext ctx{eps,    rng, cfg, nullptr,
                                  policy, &directory};
    protocol::AgentDriver::Callbacks callbacks;
    callbacks.begin_window = [&](int) {
      for (size_t i = 0; i < kMarket.size(); ++i) {
        parties[i].BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
      }
    };
    protocol::AgentDriver driver(self, ctx, parties, callbacks);
    driver.Serve(ctl);
    return 0;
  };

  std::unique_ptr<net::AgentSupervisor> owner;
  const int n = static_cast<int>(kMarket.size());
  if (kind == net::TransportKind::kShm) {
    owner = std::make_unique<net::ShmTransport>(n, child_main,
                                                net::ShmTransport::Options{});
  } else {
    owner = std::make_unique<net::ProcessTransport>(n, child_main);
  }
  owner->SetObserver(
      [&run](const net::Message& m) { run.messages.push_back(m); });
  run.record = protocol::RunForkedWindow(*owner, 0);
  owner->SetObserver(nullptr);
  owner->Shutdown();
  owner.reset();
  ExpectNoZombies();
  return run;
}

// Runs a forked audited window that is EXPECTED to die with a
// structured error (equivocation, forged report).  Returns the error
// text; cleans up the supervisor and asserts no zombies either way.
std::string RunForkedWindowExpectingError(net::TransportKind kind,
                                          const protocol::PemConfig& cfg) {
  std::string what;
  try {
    (void)RunAuditedWindowForked(kind, cfg);
    ADD_FAILURE() << "forked window unexpectedly succeeded";
  } catch (const std::exception& e) {
    what = e.what();
  }
  ExpectNoZombies();
  return what;
}

void ExpectSingleFault(const AdvRun& run, CheatClass cheat,
                       const char* backend) {
  EXPECT_TRUE(run.record.audit.audited) << backend;
  EXPECT_EQ(run.record.audit.auditor, kAuditor) << backend;
  ASSERT_EQ(run.record.audit.faults.size(), 1u) << backend;
  const protocol::ProtocolFault& f = run.record.audit.faults[0];
  EXPECT_EQ(f.cheater, kCheater) << backend;
  EXPECT_EQ(f.cheat, cheat) << backend;
  EXPECT_EQ(f.window, 0) << backend;
  EXPECT_FALSE(f.detail.empty()) << backend;
  // The honest survivors still complete the window: the cheating buyer
  // is excluded mid-window and the market forms without it.
  EXPECT_NE(run.record.type, market::MarketType::kNoMarket) << backend;
  EXPECT_EQ(run.record.num_sellers, 3) << backend;
  EXPECT_EQ(run.record.num_buyers, 2) << backend;
  EXPECT_GT(run.record.bus_bytes, 0u) << backend;
}

// Every cheat class, every backend: detection is a deterministic
// function of the transcript, so the SAME named fault must come out of
// all three transports (the serial bus at 1 and 4 threads).
void ExpectCheatCaughtEverywhere(CheatClass cheat) {
  const protocol::PemConfig cfg = AuditedConfig({kCheater, cheat, 0});
  ExpectSingleFault(RunAuditedWindow(net::ExecutionPolicy::Serial(), cfg),
                    cheat, "serial");
  ExpectSingleFault(RunAuditedWindow(net::ExecutionPolicy::Parallel(4), cfg),
                    cheat, "serial x4");
  ExpectSingleFault(RunAuditedWindowForked(net::TransportKind::kProcess, cfg),
                    cheat, "process");
  ExpectSingleFault(RunAuditedWindowForked(net::TransportKind::kShm, cfg),
                    cheat, "shm");
}

TEST(AdversarialWall, MisEncryptedContributionCaughtOnAllBackends) {
  ExpectCheatCaughtEverywhere(CheatClass::kMisEncryptedContribution);
}

TEST(AdversarialWall, CommitmentMismatchCaughtOnAllBackends) {
  ExpectCheatCaughtEverywhere(CheatClass::kCommitmentMismatch);
}

TEST(AdversarialWall, ReplayedContributionCaughtOnAllBackends) {
  ExpectCheatCaughtEverywhere(CheatClass::kReplayedFrame);
}

TEST(AdversarialWall, ForgedByteCountCaughtOnAllBackends) {
  ExpectCheatCaughtEverywhere(CheatClass::kForgedByteCount);
}

TEST(AdversarialWall, CleanWindowAuditsWithoutFaults) {
  const AdvRun run =
      RunAuditedWindow(net::ExecutionPolicy::Serial(), AuditedConfig());
  EXPECT_TRUE(run.record.audit.audited);
  EXPECT_EQ(run.record.audit.auditor, kAuditor);
  EXPECT_TRUE(run.record.audit.faults.empty());
  EXPECT_EQ(run.record.num_sellers, 3);
  EXPECT_EQ(run.record.num_buyers, 3);
}

TEST(AdversarialWall, AuditDisabledMeansNoAuditTraffic) {
  protocol::PemConfig off = AuditedConfig();
  off.audit.enabled = false;
  const AdvRun run = RunAuditedWindow(net::ExecutionPolicy::Serial(), off);
  EXPECT_FALSE(run.record.audit.audited);
  EXPECT_EQ(run.record.audit.auditor, -1);
  for (const net::Message& m : run.messages) {
    EXPECT_NE(m.type, protocol::kMsgAuditContribution);
    EXPECT_NE(m.type, protocol::kMsgAuditVerdict);
  }
}

// The §VI claim with teeth: the audit draws all randomness from side
// streams, so an honest bystander's wire bytes are IDENTICAL whether
// the cheater misbehaved (and got excluded mid-window) or had never
// been in the roster at all.  Only the cheater's own frames and the
// auditor's (its demand count and verdict bytes legitimately reflect
// the roster) may differ.
TEST(AdversarialWall, HonestTranscriptsByteIdenticalUnderEveryCheat) {
  const std::vector<net::AgentId> churned = {kCheater};
  const AdvRun clean = RunAuditedWindow(net::ExecutionPolicy::Serial(),
                                        AuditedConfig(), 42, churned);
  for (CheatClass cheat :
       {CheatClass::kMisEncryptedContribution, CheatClass::kCommitmentMismatch,
        CheatClass::kReplayedFrame, CheatClass::kForgedByteCount}) {
    const AdvRun cheated = RunAuditedWindow(
        net::ExecutionPolicy::Serial(), AuditedConfig({kCheater, cheat, 0}));
    std::map<net::AgentId, std::vector<const net::Message*>> a, b;
    for (const net::Message& m : clean.messages) {
      if (m.from != kCheater && m.from != kAuditor) a[m.from].push_back(&m);
    }
    for (const net::Message& m : cheated.messages) {
      if (m.from != kCheater && m.from != kAuditor) b[m.from].push_back(&m);
    }
    ASSERT_EQ(b.size(), a.size());
    for (const auto& [sender, seq] : a) {
      const auto it = b.find(sender);
      ASSERT_NE(it, b.end()) << "sender " << sender << " missing";
      ASSERT_EQ(it->second.size(), seq.size())
          << "honest sender " << sender << " message count changed under "
          << CheatClassName(cheat);
      for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(*it->second[i] == *seq[i])
            << "honest sender " << sender << " byte-diverges at message "
            << i << " under " << CheatClassName(cheat);
      }
    }
    // Market outcome also matches the cheater-never-joined baseline:
    // exclusion leaves exactly the same survivors trading.
    EXPECT_EQ(cheated.record.type, clean.record.type);
    EXPECT_DOUBLE_EQ(cheated.record.price, clean.record.price);
    EXPECT_EQ(cheated.record.num_sellers, clean.record.num_sellers);
    EXPECT_EQ(cheated.record.num_buyers, clean.record.num_buyers);
  }
}

TEST(AdversarialWall, AuditCoinFlipIsSeededAndSparse) {
  // audit_one_in = 3: over twelve windows some are audited and some
  // are not, and the selection is a pure function of (seed, window).
  protocol::PemConfig cfg = AuditedConfig();
  cfg.audit.audit_one_in = 3;
  std::vector<bool> audited;
  for (int w = 0; w < 12; ++w) {
    crypto::DeterministicRng rng(42);
    protocol::KeyDirectory directory;
    std::unique_ptr<net::Transport> bus = net::MakeTransport(
        net::TransportKind::kSerialBus, static_cast<int>(kMarket.size()));
    std::vector<net::Endpoint> eps = bus->endpoints();
    std::vector<protocol::Party> parties;
    for (size_t i = 0; i < kMarket.size(); ++i) {
      parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
      parties.back().BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
    }
    protocol::ProtocolContext ctx{eps, rng, cfg, nullptr,
                                  net::ExecutionPolicy::Serial(), &directory};
    audited.push_back(protocol::RunPemWindow(ctx, parties, w).record.audit.audited);
  }
  const size_t hits =
      static_cast<size_t>(std::count(audited.begin(), audited.end(), true));
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, audited.size());
}

// --- key equivocation (satellite: directory over the wire) ------------

TEST(AdversarialWall, EquivocationNamedInProcess) {
  const protocol::PemConfig cfg =
      AuditedConfig({kAuditor, CheatClass::kKeyEquivocation, 0});
  for (const net::ExecutionPolicy& policy :
       {net::ExecutionPolicy::Serial(), net::ExecutionPolicy::Parallel(4)}) {
    try {
      (void)RunAuditedWindow(policy, cfg);
      FAIL() << "equivocation not detected";
    } catch (const protocol::ProtocolError& e) {
      EXPECT_EQ(e.fault().cheater, kAuditor);
      EXPECT_EQ(e.fault().cheat, CheatClass::kKeyEquivocation);
      EXPECT_EQ(e.fault().window, 0);
    }
  }
}

TEST(AdversarialWall, EquivocationNamedOverForkedBackends) {
  // Every child replays the doctored broadcast from the fork-copied
  // cheat plan, detects the conflict in its own directory replica, and
  // reports the structured error; the parent surfaces the first one.
  const protocol::PemConfig cfg =
      AuditedConfig({kAuditor, CheatClass::kKeyEquivocation, 0});
  for (net::TransportKind kind :
       {net::TransportKind::kProcess, net::TransportKind::kShm}) {
    const std::string what = RunForkedWindowExpectingError(kind, cfg);
    EXPECT_NE(what.find("protocol_violation"), std::string::npos) << what;
    EXPECT_NE(what.find("key_equivocation"), std::string::npos) << what;
    EXPECT_NE(what.find("agent 0"), std::string::npos) << what;
  }
}

// --- forged window reports (parent-side cross-check) ------------------

TEST(AdversarialWall, ForgedReportCaughtByParentOnEveryForkedBackend) {
  // The cheater's child inflates the byte count in its own window
  // report; the parent's wire ledger knows better.
  const protocol::PemConfig cfg =
      AuditedConfig({kCheater, CheatClass::kForgedReport, 0});
  for (net::TransportKind kind :
       {net::TransportKind::kProcess, net::TransportKind::kShm}) {
    try {
      (void)RunAuditedWindowForked(kind, cfg);
      FAIL() << "forged report not detected";
    } catch (const protocol::ProtocolError& e) {
      EXPECT_EQ(e.fault().cheater, kCheater);
      EXPECT_EQ(e.fault().cheat, CheatClass::kForgedReport);
      EXPECT_EQ(e.fault().window, 0);
    }
    ExpectNoZombies();
  }
}

TEST(AdversarialWall, StaleReportEchoRejectedOnEveryForkedBackend) {
  // The cheater's child answers the Run command with a report stamped
  // for the PREVIOUS window.  The parent checks every report's echoed
  // window id, so a stale echo must be rejected as a structured fault
  // BEFORE the cross-child agreement or byte cross-checks get a chance
  // to compare apples to oranges.
  const protocol::PemConfig cfg =
      AuditedConfig({kCheater, CheatClass::kStaleReport, 0});
  for (net::TransportKind kind :
       {net::TransportKind::kProcess, net::TransportKind::kShm}) {
    try {
      (void)RunAuditedWindowForked(kind, cfg);
      FAIL() << "stale report echo not detected";
    } catch (const protocol::ProtocolError& e) {
      EXPECT_EQ(e.fault().cheater, kCheater);
      EXPECT_EQ(e.fault().cheat, CheatClass::kStaleReport);
      EXPECT_EQ(e.fault().window, 0);
      EXPECT_NE(std::string(e.what()).find("stale_report"),
                std::string::npos)
          << e.what();
    }
    ExpectNoZombies();
  }
}

// --- membership churn over a full simulated day -----------------------

grid::CommunityTrace ChurnTrace() {
  grid::TraceConfig tc;
  tc.num_homes = 10;
  tc.windows_per_day = 6;
  tc.seed = 13;
  return grid::GenerateCommunityTrace(tc);
}

core::SimulationConfig ChurnConfig(const net::ExecutionPolicy& policy) {
  core::SimulationConfig cfg;
  cfg.engine = core::Engine::kCrypto;
  cfg.pem.key_bits = 128;
  cfg.pem.audit.enabled = true;  // churn + audit together, all day
  cfg.policy = policy;
  // Agent 3 leaves before window 2 and rejoins before window 4; agent
  // 7 leaves before window 3 and stays out.
  cfg.churn = {{2, 3, false}, {4, 3, true}, {3, 7, false}};
  return cfg;
}

TEST(AdversarialWall, ChurnDayIsDeterministicAndRostersShrink) {
  const grid::CommunityTrace trace = ChurnTrace();
  const core::SimulationConfig cfg =
      ChurnConfig(net::ExecutionPolicy::Serial());
  const core::SimulationResult a = core::RunSimulation(trace, cfg);
  const core::SimulationResult b = core::RunSimulation(trace, cfg);
  ASSERT_EQ(a.windows.size(), 6u);
  ASSERT_EQ(b.windows.size(), a.windows.size());
  for (size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(protocol::DiffRecords(a.windows[w], b.windows[w]),
              std::vector<std::string_view>{})
        << w;
    // The roster bound: every trading seat is an ACTIVE agent.
    int active = 10;
    if (w >= 2 && w < 4) --active;  // agent 3 out
    if (w >= 3) --active;           // agent 7 out
    EXPECT_LE(a.windows[w].num_sellers + a.windows[w].num_buyers, active)
        << w;
  }
}

struct ChurnRun {
  std::vector<net::Message> messages;
  core::SimulationResult result;
};

ChurnRun RunChurnDay(const net::ExecutionPolicy& policy) {
  ChurnRun run;
  core::SimulationConfig cfg = ChurnConfig(policy);
  cfg.bus_observer = [&run](const net::Message& m) {
    run.messages.push_back(m);
  };
  run.result = core::RunSimulation(ChurnTrace(), cfg);
  return run;
}

void ExpectChurnParity(const ChurnRun& serial, const ChurnRun& other,
                       bool strict_order) {
  ASSERT_EQ(other.result.windows.size(), serial.result.windows.size());
  for (size_t w = 0; w < serial.result.windows.size(); ++w) {
    EXPECT_EQ(protocol::DiffRecords(serial.result.windows[w],
                                    other.result.windows[w]),
              std::vector<std::string_view>{})
        << w;
  }
  EXPECT_EQ(other.result.total_bus_bytes, serial.result.total_bus_bytes);
  ASSERT_EQ(other.messages.size(), serial.messages.size());
  if (strict_order) {
    for (size_t i = 0; i < serial.messages.size(); ++i) {
      EXPECT_TRUE(other.messages[i] == serial.messages[i])
          << "transcript diverges at message " << i;
    }
  } else {
    std::map<net::AgentId, std::vector<const net::Message*>> a, b;
    for (const net::Message& m : serial.messages) a[m.from].push_back(&m);
    for (const net::Message& m : other.messages) b[m.from].push_back(&m);
    ASSERT_EQ(b.size(), a.size());
    for (const auto& [sender, seq] : a) {
      const auto it = b.find(sender);
      ASSERT_NE(it, b.end()) << "sender " << sender << " missing";
      ASSERT_EQ(it->second.size(), seq.size()) << "sender " << sender;
      for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(*it->second[i] == *seq[i])
            << "sender " << sender << " diverges at its message " << i;
      }
    }
  }
  EXPECT_FALSE(serial.messages.empty());
}

TEST(AdversarialWall, ChurnDayMatchesAcrossInProcessBackends) {
  const ChurnRun serial = RunChurnDay(net::ExecutionPolicy::Serial());
  ExpectChurnParity(serial, RunChurnDay(net::ExecutionPolicy::Parallel(4)),
                    /*strict_order=*/true);
}

TEST(AdversarialWall, ChurnDayMatchesAcrossForkedBackends) {
  // Every child replays the churn schedule on its own roster replica,
  // so leaves and rejoins re-form the rings identically in all n
  // processes — and the per-window ledger cross-check inside
  // RunForkedWindow keeps passing throughout.
  const ChurnRun serial = RunChurnDay(net::ExecutionPolicy::Serial());
  ExpectChurnParity(serial, RunChurnDay(net::ExecutionPolicy::Process()),
                    /*strict_order=*/false);
  ExpectNoZombies();
  ExpectChurnParity(serial, RunChurnDay(net::ExecutionPolicy::Shm()),
                    /*strict_order=*/false);
  ExpectNoZombies();
}

// --- cheat + churn through RunSimulation ------------------------------

TEST(AdversarialWall, SimulationSurfacesEquivocationOnSerialAndProcess) {
  // Probe a clean audited day for the first audited window and its
  // drawn auditor, then script that auditor to equivocate there: the
  // day must END with the structured fault, in-process and forked
  // alike.
  const grid::CommunityTrace trace = ChurnTrace();
  core::SimulationConfig clean;
  clean.engine = core::Engine::kCrypto;
  clean.pem.key_bits = 128;
  clean.pem.audit.enabled = true;
  const core::SimulationResult probe = core::RunSimulation(trace, clean);
  int cheat_window = -1;
  net::AgentId drawn_auditor = -1;
  for (const protocol::WindowRecord& rec : probe.windows) {
    if (rec.audit.audited) {
      cheat_window = rec.window;
      drawn_auditor = rec.audit.auditor;
      break;
    }
  }
  ASSERT_GE(cheat_window, 0) << "no window audited in the probe day";

  core::SimulationConfig cheat = clean;
  cheat.pem.cheat = {drawn_auditor, CheatClass::kKeyEquivocation,
                     cheat_window};
  try {
    (void)core::RunSimulation(trace, cheat);
    FAIL() << "equivocation not detected";
  } catch (const protocol::ProtocolError& e) {
    EXPECT_EQ(e.fault().cheater, drawn_auditor);
    EXPECT_EQ(e.fault().cheat, CheatClass::kKeyEquivocation);
    EXPECT_EQ(e.fault().window, cheat_window);
  }

  cheat.policy = net::ExecutionPolicy::Process();
  try {
    (void)core::RunSimulation(trace, cheat);
    FAIL() << "equivocation not detected over fork";
  } catch (const net::TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("key_equivocation"), std::string::npos) << what;
  }
  ExpectNoZombies();
}

TEST(AdversarialWall, SimulationRecordsAuditOutcomesPerWindow) {
  const grid::CommunityTrace trace = ChurnTrace();
  core::SimulationConfig cfg;
  cfg.engine = core::Engine::kCrypto;
  cfg.pem.key_bits = 128;
  cfg.pem.audit.enabled = true;
  const core::SimulationResult r = core::RunSimulation(trace, cfg);
  size_t audited = 0;
  for (const protocol::WindowRecord& rec : r.windows) {
    if (rec.audit.audited) {
      ++audited;
      EXPECT_GE(rec.audit.auditor, 0) << rec.window;
      EXPECT_TRUE(rec.audit.faults.empty()) << rec.window;
    }
  }
  EXPECT_GT(audited, 0u);
}

}  // namespace
}  // namespace pem
