// Transport-backend / engine parity.
//
// The tentpole claim of the transport redesign: the execution policy
// (transport backend + compute workers) changes WHO computes each
// ciphertext, WHEN, and over WHICH medium — the in-process FIFO bus
// (at 1 or 4 compute workers), one forked OS process per agent over
// inherited socketpairs, or one process per agent over zero-copy
// shared-memory rings — but never WHAT goes on the wire.  With the
// same seed, every backend must produce identical prices, trades, bus
// bytes, PER-AGENT byte totals, and an identical transcript (the
// serial/process/shm three-way matrix below, its serial row at 1 and
// 4 threads).
//
// Transcript ordering caveat for the forked backends (process, shm):
// their agents really run concurrently, so the parent observes
// frames in physical arrival order — only per-sender FIFO order is
// defined, exactly as on a real network.  Those rows therefore compare
// per-sender message sequences (plus total counts); the message-level
// byte equality is additionally enforced INSIDE every child, which
// byte-matches each frame it consumes against the deterministic
// schedule (net/process_transport.h, net/shm_transport.h).  The shm
// row is special in one more way: no frame ever crosses the parent, so
// its ledger and observer transcript come from the rings' snoop
// cursors — this matrix is what proves that tap misses nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.h"
#include "crypto/hash.h"
#include "crypto/secure_compare.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "protocol/agent_driver.h"
#include "protocol/pem_protocol.h"

namespace pem {
namespace {

// --- window-level parity (RunPemWindow) -------------------------------

struct WindowRun {
  std::vector<net::Message> messages;
  protocol::WindowRecord record;
  uint64_t transport_total_bytes = 0;
  // Per-agent counters for the measured window: Table-I's "bandwidth
  // per home" must agree across every backend, not just the total.
  std::vector<net::TrafficStats> per_agent;
  // Pooled r^n factors consumed by the measured window (pooled runs).
  size_t factors_consumed = 0;
};

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

WindowRun RunWindow(const net::ExecutionPolicy& policy, uint64_t seed,
                    bool pooled = false, bool crt = true) {
  WindowRun run;
  std::unique_ptr<net::Transport> bus =
      net::MakeTransport(policy.transport_kind,
                         static_cast<int>(kMarket.size()));
  std::vector<net::Endpoint> eps = bus->endpoints();
  bus->SetObserver(
      [&run](const net::Message& m) { run.messages.push_back(m); });
  crypto::DeterministicRng rng(seed);
  protocol::PemConfig cfg;
  cfg.key_bits = 128;
  cfg.precompute_encryption = pooled;
  cfg.crt_encryption = crt;
  crypto::PaillierPoolRegistry pools;
  std::vector<protocol::Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
    parties.back().BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
  }
  protocol::ProtocolContext ctx{eps, rng, cfg, pooled ? &pools : nullptr,
                                policy};
  if (pooled) {
    // Keys (and thus pools, keyed by public key) only come into
    // existence inside a window, so a fresh registry would leave
    // TakeFactor() dry and the run would silently take the
    // fresh-randomness branch.  Mirror RunSimulation: a warm-up window
    // registers the pools, the between-window RefillAll stocks them,
    // and only the second window is measured.
    protocol::RunPemWindow(ctx, parties);
    if (crt) {
      // Mirror RunSimulation's owner registration: refills for keys
      // whose owner is known take the CRT fast path.
      for (const protocol::Party& p : parties) {
        if (p.HasKeys()) pools.AttachOwner(p.private_key());
      }
    }
    pools.RefillAll(/*target=*/64, rng, policy);
    for (size_t i = 0; i < kMarket.size(); ++i) {
      parties[i].BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
    }
    run.messages.clear();
  }
  const auto count_factors = [&]() {
    size_t total = 0;
    if (!pooled) return total;
    for (const protocol::Party& p : parties) {
      // Only the window's elected aggregators ever generate keys.
      if (p.HasKeys()) total += pools.PoolFor(p.public_key()).available();
    }
    return total;
  };
  const size_t factors_before = count_factors();
  bus->ResetStats();
  run.record = protocol::RunPemWindow(ctx, parties).record;
  run.factors_consumed = factors_before - count_factors();
  run.transport_total_bytes = bus->total_bytes();
  for (size_t i = 0; i < kMarket.size(); ++i) {
    run.per_agent.push_back(bus->stats(static_cast<net::AgentId>(i)));
  }
  return run;
}

// Byte-identical transcript in the single total order every in-process
// backend defines.
void ExpectSameTranscript(const std::vector<net::Message>& serial,
                          const std::vector<net::Message>& other) {
  ASSERT_EQ(other.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(other[i] == serial[i])
        << "transcript diverges at message " << i << " (serial type 0x"
        << std::hex << serial[i].type << ", other type 0x" << other[i].type
        << ")";
  }
}

// Byte-identical transcript up to cross-sender interleaving: equal
// totals and, per sender, the identical message sequence — the
// strongest order a set of genuinely concurrent processes defines.
void ExpectSameTranscriptPerSender(const std::vector<net::Message>& serial,
                                   const std::vector<net::Message>& other) {
  ASSERT_EQ(other.size(), serial.size());
  std::map<net::AgentId, std::vector<const net::Message*>> a, b;
  for (const net::Message& m : serial) a[m.from].push_back(&m);
  for (const net::Message& m : other) b[m.from].push_back(&m);
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

// Exact agreement of two doubles: equal bits, so no ULP slack, and a
// NaN matches the same NaN, as in the children's own report check.
testing::AssertionResult SameBits(double got, double want) {
  if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want)) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << got << " differs from " << want << " in its bits";
}

void ExpectWindowParity(const WindowRun& serial, const WindowRun& parallel,
                        bool strict_order = true) {
  // Market outcome.
  EXPECT_EQ(parallel.record.type, serial.record.type);
  EXPECT_TRUE(SameBits(parallel.record.price, serial.record.price));
  EXPECT_EQ(parallel.record.bus_bytes, serial.record.bus_bytes);
  // The transport's own total must agree with the per-endpoint delta
  // accounting on every backend.
  EXPECT_EQ(parallel.transport_total_bytes, serial.transport_total_bytes);
  EXPECT_EQ(serial.transport_total_bytes, serial.record.bus_bytes);
  // Per-agent byte totals: every backend charges the same bandwidth to
  // the same home (what Table I reports), message by message.
  ASSERT_EQ(parallel.per_agent.size(), serial.per_agent.size());
  for (size_t a = 0; a < serial.per_agent.size(); ++a) {
    EXPECT_TRUE(parallel.per_agent[a] == serial.per_agent[a])
        << "per-agent traffic diverges for agent " << a;
  }
  ASSERT_EQ(parallel.record.trades.size(), serial.record.trades.size());
  for (size_t i = 0; i < serial.record.trades.size(); ++i) {
    const protocol::Trade& a = serial.record.trades[i];
    const protocol::Trade& b = parallel.record.trades[i];
    EXPECT_EQ(b.seller_index, a.seller_index) << i;
    EXPECT_EQ(b.buyer_index, a.buyer_index) << i;
    EXPECT_TRUE(SameBits(b.energy_kwh, a.energy_kwh)) << i;
    EXPECT_TRUE(SameBits(b.payment, a.payment)) << i;
  }
  if (strict_order) {
    ExpectSameTranscript(serial.messages, parallel.messages);
  } else {
    ExpectSameTranscriptPerSender(serial.messages, parallel.messages);
  }
  EXPECT_FALSE(serial.messages.empty());
}

// Forked-backend window run: the same market and seed as RunWindow,
// but with one OS process per agent — over inherited socketpairs
// (kProcess) or shared-memory rings (kShm).  The transcript is what
// the parent router physically relayed between the children's
// sockets, or what its snoop cursors read off the rings; bytes are
// the parent ledger's literal bytes.
WindowRun RunWindowForked(net::TransportKind kind, uint64_t seed,
                          bool pooled = false, bool crt = true,
                          int threads = 1) {
  WindowRun run;
  protocol::PemConfig cfg;
  cfg.key_bits = 128;
  cfg.precompute_encryption = pooled;
  cfg.crt_encryption = crt;
  const net::ExecutionPolicy policy{kind, threads};

  crypto::DeterministicRng rng(seed);
  crypto::PaillierPoolRegistry pools;
  std::vector<protocol::Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
  }

  net::AgentSupervisor::ChildMain child_main =
      [&cfg, &policy, &rng, &pools, &parties](
          net::AgentId self, net::Transport& wire,
          net::ControlChannel& ctl) -> int {
    std::vector<net::Endpoint> eps = wire.endpoints();
    protocol::ProtocolContext ctx{eps, rng, cfg,
                                  cfg.precompute_encryption ? &pools : nullptr,
                                  policy};
    protocol::AgentDriver::Callbacks callbacks;
    callbacks.begin_window = [&](int) {
      // Same RNG draw order as RunWindow's party setup / re-begin.
      for (size_t i = 0; i < kMarket.size(); ++i) {
        parties[i].BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
      }
    };
    callbacks.after_window = [&](int) {
      if (!cfg.precompute_encryption) return;
      if (cfg.crt_encryption) {
        for (const protocol::Party& p : parties) {
          if (p.HasKeys()) pools.AttachOwner(p.private_key());
        }
      }
      pools.RefillAll(/*target=*/64, rng, policy);
    };
    protocol::AgentDriver driver(self, ctx, parties, callbacks);
    driver.Serve(ctl);
    return 0;
  };

  std::unique_ptr<net::AgentSupervisor> owner;
  if (kind == net::TransportKind::kShm) {
    owner = std::make_unique<net::ShmTransport>(
        static_cast<int>(kMarket.size()), child_main,
        net::ShmTransport::Options{});
  } else {
    owner = std::make_unique<net::ProcessTransport>(
        static_cast<int>(kMarket.size()), child_main);
  }
  net::AgentSupervisor& transport = *owner;
  const auto run_window = [&transport](int w) {
    return protocol::RunForkedWindow(transport, w);
  };
  if (pooled) {
    // Warm-up window registers keys and pools; only the second window
    // is measured (mirrors RunWindow exactly — the children's
    // after_window refill runs between the two).
    (void)run_window(0);
  }
  transport.ResetStats();
  transport.SetObserver(
      [&run](const net::Message& m) { run.messages.push_back(m); });
  run.record = run_window(pooled ? 1 : 0);
  run.transport_total_bytes = transport.total_bytes();
  for (size_t i = 0; i < kMarket.size(); ++i) {
    run.per_agent.push_back(transport.stats(static_cast<net::AgentId>(i)));
  }
  transport.SetObserver(nullptr);
  transport.Shutdown();

  // Pool-factor accounting lives inside the children; the pooled-branch
  // coverage assertions stay with the in-process rows.
  run.factors_consumed = 0;
  return run;
}

TEST(TranscriptParity, WindowFourWayMatrix) {
  // serial (1 and 4 threads) / process / shm: same seed, same
  // transcript, same per-agent bytes.
  const WindowRun serial = RunWindow(net::ExecutionPolicy::Serial(), 42);
  const WindowRun parallel = RunWindow(net::ExecutionPolicy::Parallel(4), 42);
  const WindowRun process =
      RunWindowForked(net::TransportKind::kProcess, 42);
  const WindowRun shm = RunWindowForked(net::TransportKind::kShm, 42);
  ExpectWindowParity(serial, parallel);
  // Forked agents: identical outcome and bytes, per-sender-identical
  // transcript (their frames really interleave on arrival) — over
  // inherited socketpairs and shared-memory rings alike.  The shm
  // bytes were never routed: the snoop-cursor ledger must equal the
  // canonical accounting agent by agent.
  ExpectWindowParity(serial, process, /*strict_order=*/false);
  ExpectWindowParity(serial, shm, /*strict_order=*/false);
}

TEST(TranscriptParity, ProcessWithComputeWorkersAlsoMatches) {
  // The policy axes stay independent under fork too: each child fans
  // its compute phase across workers without moving a wire byte.
  const WindowRun serial = RunWindow(net::ExecutionPolicy::Serial(), 7);
  const WindowRun process =
      RunWindowForked(net::TransportKind::kProcess, 7, /*pooled=*/false,
                      /*crt=*/true, /*threads=*/2);
  ExpectWindowParity(serial, process, /*strict_order=*/false);
}

TEST(TranscriptParity, ShmWithComputeWorkersAlsoMatches) {
  // Same independence over shared-memory rings.
  const WindowRun serial = RunWindow(net::ExecutionPolicy::Serial(), 7);
  const WindowRun shm =
      RunWindowForked(net::TransportKind::kShm, 7, /*pooled=*/false,
                      /*crt=*/true, /*threads=*/2);
  ExpectWindowParity(serial, shm, /*strict_order=*/false);
}

TEST(TranscriptParity, WindowParityHoldsAcrossSeeds) {
  for (uint64_t seed : {1u, 7u, 2020u}) {
    const WindowRun serial = RunWindow(net::ExecutionPolicy::Serial(), seed);
    const WindowRun parallel =
        RunWindow(net::ExecutionPolicy::Parallel(8), seed);
    ExpectWindowParity(serial, parallel);
  }
}

TEST(TranscriptParity, WindowParityWithRandomnessPools) {
  const WindowRun serial =
      RunWindow(net::ExecutionPolicy::Serial(), 11, /*pooled=*/true);
  const WindowRun parallel =
      RunWindow(net::ExecutionPolicy::Parallel(4), 11, /*pooled=*/true);
  const WindowRun process =
      RunWindowForked(net::TransportKind::kProcess, 11, /*pooled=*/true);
  const WindowRun shm =
      RunWindowForked(net::TransportKind::kShm, 11, /*pooled=*/true);
  ExpectWindowParity(serial, parallel);
  ExpectWindowParity(serial, process, /*strict_order=*/false);
  ExpectWindowParity(serial, shm, /*strict_order=*/false);
  // The parity must cover the pooled EncryptWithFactor branch, not just
  // the fresh-randomness fallback: all engines must actually draw
  // factors, and the same number of them.
  EXPECT_GT(serial.factors_consumed, 0u);
  EXPECT_EQ(parallel.factors_consumed, serial.factors_consumed);
}

// --- CRT encryption + concurrent refill parity ------------------------
//
// The two Fig. 5(b) idle-time optimizations of this PR change WHERE the
// r^n exponentiations run (mod p^2/q^2 instead of mod n^2) and HOW MANY
// workers compute them (pool refill fans out per the policy) — but not
// one wire byte.  Baseline: CRT off, serial refill.

TEST(TranscriptParity, CrtEncryptionChangesNoWireByte) {
  // Non-pooled: the owner fast path covers the aggregators' own ring
  // contributions (fresh-randomness branch).
  const WindowRun off =
      RunWindow(net::ExecutionPolicy::Serial(), 42, /*pooled=*/false,
                /*crt=*/false);
  const WindowRun on =
      RunWindow(net::ExecutionPolicy::Serial(), 42, /*pooled=*/false,
                /*crt=*/true);
  ExpectWindowParity(off, on);
}

TEST(TranscriptParity, CrtAndConcurrentRefillMatrix) {
  // Pooled: refills run the owner-CRT path and fan out across the
  // policy's workers on every backend; the transcript must match the
  // all-optimizations-off serial baseline byte for byte.
  const WindowRun base = RunWindow(net::ExecutionPolicy::Serial(), 11,
                                   /*pooled=*/true, /*crt=*/false);
  const WindowRun crt_serial = RunWindow(net::ExecutionPolicy::Serial(), 11,
                                         /*pooled=*/true, /*crt=*/true);
  const WindowRun crt_parallel = RunWindow(net::ExecutionPolicy::Parallel(8),
                                           11, /*pooled=*/true, /*crt=*/true);
  const WindowRun crt_process =
      RunWindowForked(net::TransportKind::kProcess, 11, /*pooled=*/true,
                      /*crt=*/true, /*threads=*/2);
  const WindowRun crt_shm =
      RunWindowForked(net::TransportKind::kShm, 11, /*pooled=*/true,
                      /*crt=*/true, /*threads=*/2);
  ExpectWindowParity(base, crt_serial);
  ExpectWindowParity(base, crt_parallel);
  ExpectWindowParity(base, crt_process, /*strict_order=*/false);
  ExpectWindowParity(base, crt_shm, /*strict_order=*/false);
  // All in-process runs must exercise the pooled branch, equally (the
  // forked rows count factors inside the children).
  EXPECT_GT(base.factors_consumed, 0u);
  EXPECT_EQ(crt_serial.factors_consumed, base.factors_consumed);
  EXPECT_EQ(crt_parallel.factors_consumed, base.factors_consumed);
}

TEST(TranscriptParity, SerialTransportWithWorkersAlsoMatches) {
  // The phase engine never sends from compute workers, so the bus
  // carries the serial transcript under threads > 1; the policy's two
  // axes are independent.
  const WindowRun serial = RunWindow(net::ExecutionPolicy::Serial(), 3);
  const WindowRun hybrid =
      RunWindow({net::TransportKind::kSerialBus, 4}, 3);
  ExpectWindowParity(serial, hybrid);
}

// --- full-simulation parity (RunSimulation) ---------------------------

struct SimRun {
  std::vector<net::Message> messages;
  core::SimulationResult result;
};

// Optional per-test knob hook (pools, audits, churn).
using ConfigTweak = std::function<void(core::SimulationConfig&)>;

// The parity day: ten homes, six windows.
grid::TraceConfig ParityDay() {
  grid::TraceConfig tc;
  tc.num_homes = 10;
  tc.windows_per_day = 6;
  tc.seed = 13;
  return tc;
}

SimRun RunSim(const net::ExecutionPolicy& policy,
              const ConfigTweak& tweak = {},
              const grid::TraceConfig& tc = ParityDay()) {
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(tc);

  SimRun run;
  core::SimulationConfig cfg;
  cfg.engine = core::Engine::kCrypto;
  cfg.pem.key_bits = 128;
  cfg.policy = policy;
  cfg.record_states = true;
  cfg.bus_observer = [&run](const net::Message& m) {
    run.messages.push_back(m);
  };
  if (tweak) tweak(cfg);
  run.result = core::RunSimulation(trace, cfg);
  return run;
}

void ExpectSimParity(const SimRun& serial, const SimRun& other,
                     bool strict_order = true) {
  ASSERT_EQ(other.result.windows.size(), serial.result.windows.size());
  ASSERT_FALSE(serial.result.windows.empty());
  ASSERT_EQ(other.result.baselines.size(), serial.result.baselines.size());
  for (size_t w = 0; w < serial.result.windows.size(); ++w) {
    // Every visited record field, bit for bit: prices, trades, bytes,
    // the rng stream position (the strongest cheap witness that no
    // engine, backend, or window schedule moved a single random byte)
    // and each audit fault.
    EXPECT_EQ(protocol::DiffRecords(serial.result.windows[w],
                                    other.result.windows[w]),
              std::vector<std::string_view>{})
        << w;
    const market::BaselineOutcome& a = serial.result.baselines[w];
    const market::BaselineOutcome& b = other.result.baselines[w];
    EXPECT_TRUE(SameBits(b.buyer_total_cost, a.buyer_total_cost)) << w;
    EXPECT_TRUE(SameBits(b.GridInteraction(), a.GridInteraction())) << w;
  }
  EXPECT_EQ(other.result.total_bus_bytes, serial.result.total_bus_bytes);
  // The resolved window states (battery dynamics included) of every
  // executed window; runtime_seconds is the only record field left
  // unchecked (Visit skips it), since wall clock is not part of the
  // transcript.
  ASSERT_EQ(other.result.resolved_states.size(),
            serial.result.resolved_states.size());
  for (size_t w = 0; w < serial.result.resolved_states.size(); ++w) {
    const std::vector<grid::WindowState>& a = serial.result.resolved_states[w];
    const std::vector<grid::WindowState>& b = other.result.resolved_states[w];
    ASSERT_EQ(b.size(), a.size()) << w;
    for (size_t h = 0; h < a.size(); ++h) {
      EXPECT_EQ(b[h].generation_kwh, a[h].generation_kwh) << w << "/" << h;
      EXPECT_EQ(b[h].load_kwh, a[h].load_kwh) << w << "/" << h;
      EXPECT_EQ(b[h].battery_kwh, a[h].battery_kwh) << w << "/" << h;
    }
  }

  if (strict_order) {
    ExpectSameTranscript(serial.messages, other.messages);
  } else {
    ExpectSameTranscriptPerSender(serial.messages, other.messages);
  }
  EXPECT_FALSE(serial.messages.empty());
}

TEST(TranscriptParity, FullTradingDaySerialVsPhaseParallel) {
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial());
  const SimRun parallel = RunSim(net::ExecutionPolicy::Parallel(4));
  ExpectSimParity(serial, parallel);
}

bool Carries(const SimRun& run, uint32_t type) {
  return std::any_of(run.messages.begin(), run.messages.end(),
                     [type](const net::Message& m) { return m.type == type; });
}

// SHA-256 over every delivered message (sender, receiver, type,
// payload) in order, then each window's rng cursor.
std::string DayDigest(const SimRun& run) {
  net::ByteWriter w;
  for (const net::Message& m : run.messages) {
    w.U32(static_cast<uint32_t>(m.from));
    w.U32(static_cast<uint32_t>(m.to));
    w.U32(m.type);
    w.Bytes(m.payload);
  }
  for (const protocol::WindowRecord& rec : run.result.windows) {
    w.U64(rec.rng_cursor);
  }
  return crypto::Sha256(w.data()).Hex();
}

TEST(TranscriptParity, PinnedDayDigest) {
  // Every other row compares one backend or schedule with another, so a
  // change that moves all of them alike passes the wall.  This row pins
  // the serial day itself at 512-bit keys (DayDigest).  A change that
  // moves one wire byte or one random draw fails here and must re-pin
  // on purpose.
  const SimRun serial =
      RunSim(net::ExecutionPolicy::Serial(),
             [](core::SimulationConfig& c) { c.pem.key_bits = 512; });
  ASSERT_EQ(serial.result.windows.size(), 6u);
  // The pin covers the secure comparison only if the day runs one.
  EXPECT_TRUE(Carries(serial, crypto::kMsgGcTables));
  // Every market of this day is extreme or empty, so it never runs
  // Private Pricing: PinnedGeneralMarketDigest pins that.
  EXPECT_FALSE(Carries(serial, protocol::kMsgPrice));
  EXPECT_EQ(DayDigest(serial),
            "2101f9cb26d4529d1cb875b1a970e9717516e2c7d1fe4fae52f634421973804e");
}

TEST(TranscriptParity, PinnedGeneralMarketDigest) {
  // PinnedDayDigest's pin for a day that prices general markets: a
  // 24-window day sampled at windows 3, 11 and 19 (general, extreme,
  // general) at 512-bit keys.  Private Pricing's two ring sums and the
  // Stackelberg price broadcast are on the wire only here, so this row
  // is what fails if their order or bytes move.
  grid::TraceConfig day = ParityDay();
  day.windows_per_day = 24;
  const SimRun serial = RunSim(
      net::ExecutionPolicy::Serial(),
      [](core::SimulationConfig& c) {
        c.pem.key_bits = 512;
        c.window_offset = 3;
        c.window_stride = 8;
      },
      day);
  ASSERT_EQ(serial.result.windows.size(), 3u);
  EXPECT_TRUE(Carries(serial, crypto::kMsgGcTables));
  // The day prices a general market.
  EXPECT_TRUE(Carries(serial, protocol::kMsgPrice));
  EXPECT_EQ(DayDigest(serial),
            "96fe990c874151bcbf66c5a234cdaf2f30f7365fd2dc548993cc1a07af711ec5");
}

// Every backend runs a day one window at a time, so the day's runtime
// is exactly the sum of its windows' runtimes.
void ExpectRuntimeIsWindowSum(const SimRun& run) {
  double sum = 0.0;
  for (const protocol::WindowRecord& rec : run.result.windows) {
    EXPECT_GT(rec.runtime_seconds, 0.0) << rec.window;
    sum += rec.runtime_seconds;
  }
  EXPECT_EQ(run.result.total_runtime_seconds, sum);
}

TEST(TranscriptParity, FullTradingDaySerialVsProcess) {
  // Ten agents, ten OS processes, a six-window day: identical window
  // records (prices, trades, BYTES — the process bytes being literal
  // socketpair traffic, cross-checked against the canonical ledger on
  // every window inside RunForkedWindow) and a per-sender
  // byte-identical wire transcript.
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial());
  const SimRun process = RunSim(net::ExecutionPolicy::Process());
  ExpectSimParity(serial, process, /*strict_order=*/false);
  ExpectRuntimeIsWindowSum(serial);
  ExpectRuntimeIsWindowSum(process);
}

TEST(TranscriptParity, FullTradingDaySerialVsShm) {
  // The same day over zero-copy shared-memory rings: every frame is
  // written once and consumed in place, yet the Table-I numbers —
  // accounted from the snoop cursors, synced by RunForkedWindow before
  // each window's cross-check — still equal the canonical ledger window
  // by window and agent by agent.
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial());
  const SimRun shm = RunSim(net::ExecutionPolicy::Shm());
  ExpectSimParity(serial, shm, /*strict_order=*/false);
  ExpectRuntimeIsWindowSum(shm);
}

// SimulationConfig::windows_in_flight once batched several windows per
// dispatch; every backend now runs one window at a time and never reads
// it.  perfbench still sets it to 4, so these two rows pin that a day
// with the knob set reads exactly like the serial day.
const ConfigTweak kBatch4 = [](core::SimulationConfig& c) {
  c.windows_in_flight = 4;
};

TEST(TranscriptParity, BatchedDayMatchesSerialInProcess) {
  // The serial bus at 1 and 4 threads with windows_in_flight = 4 against
  // the plain serial day: in-process, neither the unread knob nor the
  // compute fan-out's worker count moves a byte.
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial());
  const SimRun bus = RunSim(net::ExecutionPolicy::Serial(), kBatch4);
  const SimRun parallel = RunSim(net::ExecutionPolicy::Parallel(4), kBatch4);
  ExpectSimParity(serial, bus);
  ExpectSimParity(serial, parallel);
}

TEST(TranscriptParity, BatchedDayMatchesSerialForked) {
  // process / shm with windows_in_flight = 4: the children still run
  // one window at a time, so the day reads like the serial one and its
  // runtime is exactly the sum of its windows' runtimes.
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial());
  const SimRun process = RunSim(net::ExecutionPolicy::Process(), kBatch4);
  const SimRun shm = RunSim(net::ExecutionPolicy::Shm(), kBatch4);
  ExpectSimParity(serial, process, /*strict_order=*/false);
  ExpectSimParity(serial, shm, /*strict_order=*/false);
  ExpectRuntimeIsWindowSum(process);
  ExpectRuntimeIsWindowSum(shm);
}

// --- feature days on the forked backends ------------------------------
//
// Pools, CRT, audits and churn each add draws or traffic between or
// inside windows; the children replay them on their own replicas, and
// the day must still read bit for bit like the serial one: prices,
// trades, per-window ledger bytes, and rng cursors.

TEST(TranscriptParity, PooledDayMatchesSerialOnProcess) {
  // Randomness pools refill between windows; the children's refills
  // must not move a single factor draw.
  const ConfigTweak pooled = [](core::SimulationConfig& c) {
    c.pem.precompute_encryption = true;
  };
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial(), pooled);
  const SimRun process = RunSim(net::ExecutionPolicy::Process(), pooled);
  ExpectSimParity(serial, process, /*strict_order=*/false);
}

TEST(TranscriptParity, PooledCrtDayMatchesSerialOnShm) {
  // The full Fig. 5 idle-time stack — pools and CRT exponentiation —
  // against the same stack on the serial bus.  (Pools themselves shift
  // the day's stream — refills draw ahead — which is why the baseline
  // here is pooled+CRT serial, not the bare serial day.)
  const ConfigTweak crt = [](core::SimulationConfig& c) {
    c.pem.precompute_encryption = true;
    c.pem.crt_encryption = true;
  };
  const SimRun base = RunSim(net::ExecutionPolicy::Serial(), crt);
  const SimRun shm = RunSim(net::ExecutionPolicy::Shm(), crt);
  ExpectSimParity(base, shm, /*strict_order=*/false);
}

TEST(TranscriptParity, AuditArmedDayMatchesSerialOnProcess) {
  // §VI audits draw their coin flips and verification traffic inside
  // the window; every child must elect the same auditors and reach the
  // same (clean) verdicts window by window.
  const ConfigTweak audited = [](core::SimulationConfig& c) {
    c.pem.audit.enabled = true;
  };
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial(), audited);
  const SimRun process = RunSim(net::ExecutionPolicy::Process(), audited);
  ExpectSimParity(serial, process, /*strict_order=*/false);
  // The row is only meaningful if somebody actually audited.
  bool any_audited = false;
  for (const protocol::WindowRecord& rec : serial.result.windows) {
    any_audited |= rec.audit.audited;
  }
  EXPECT_TRUE(any_audited);
}

TEST(TranscriptParity, ChurnedStridedDayMatchesSerial) {
  // Membership churn lands on windows the stride skips as well as ones
  // it runs; the parent must replay every event in window order before
  // deciding what a sampled window looks like (the forked parent loop
  // used to skip churn entirely — this row is its regression test).
  const ConfigTweak churned = [](core::SimulationConfig& c) {
    c.window_stride = 2;
    c.window_offset = 1;
    c.churn = {{2, 3, false}, {4, 3, true}, {3, 7, false}};
  };
  const SimRun serial = RunSim(net::ExecutionPolicy::Serial(), churned);
  const SimRun process = RunSim(net::ExecutionPolicy::Process(), churned);
  const SimRun parallel = RunSim(net::ExecutionPolicy::Parallel(4), churned);
  ASSERT_EQ(serial.result.windows.size(), 3u);  // windows 1, 3, 5
  ExpectSimParity(serial, process, /*strict_order=*/false);
  ExpectSimParity(serial, parallel);
}

}  // namespace
}  // namespace pem
