// AggregationTopology wall: plan construction and the tentpole claim
// that plan SHAPE is free — a hierarchical plan reshapes the wire
// transcript (shorter critical path, different hop pattern) but the
// market outcome stays bit-identical to the flat ring's, on every
// transport backend.
//
// Plan-level properties (pure, no transport):
//   * determinism from (members, config, window); re-planning on
//     window advance (the churn-epoch re-election);
//   * every member in exactly one leaf ring, in original order (the
//     contiguous-chunk invariant that keeps phase-1 randomness draws
//     flat-identical);
//   * leader chains acyclic: level l+1's concatenated members are
//     exactly level l's leaders, ring counts strictly decrease to a
//     single root;
//   * CriticalPathHops strictly below flat's n-1 whenever hierarchical.
//
// Execution-level properties:
//   * hierarchical RingAggregate decrypts to the same sum as flat AND
//     delivers the bit-identical ciphertext (Paillier addition is a
//     commutative product mod n^2), consuming the identical ctx.rng
//     prefix;
//   * the backend matrix: a hierarchical window at fan-outs {2, 4, 8}
//     produces flat's exact prices and trades on serial (1 and 4
//     threads) / process / shm, with hier-vs-hier full parity
//     (per-agent bytes, ledger-accounted totals, per-sender
//     transcripts) across all four rows.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/bus.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "net/transport.h"
#include "protocol/agent_driver.h"
#include "protocol/context.h"
#include "protocol/pem_protocol.h"
#include "protocol/topology.h"

namespace pem::protocol {
namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> members(n);
  for (size_t i = 0; i < n; ++i) members[i] = i;
  return members;
}

TopologyConfig Hier(int fanout, uint64_t seed = 0xF00D) {
  TopologyConfig config;
  config.kind = TopologyKind::kHierarchical;
  config.fanout = fanout;
  config.seed = seed;
  return config;
}

// Leaders of every ring of `level`, in ring order — what the level
// above must consist of, exactly.
std::vector<size_t> LeadersOf(const TopologyLevel& level) {
  std::vector<size_t> leaders;
  for (const TopologyRing& ring : level.rings) leaders.push_back(ring.leader());
  return leaders;
}

// --- plan construction ------------------------------------------------

TEST(Topology, FlatPlanIsOneRingInGivenOrder) {
  const std::vector<size_t> ring = {4, 1, 3};
  const AggregationTopology plan = AggregationTopology::Flat(ring);
  EXPECT_TRUE(plan.flat());
  ASSERT_EQ(plan.levels().size(), 1u);
  ASSERT_EQ(plan.levels()[0].rings.size(), 1u);
  EXPECT_EQ(plan.levels()[0].rings[0].members, ring);
  EXPECT_EQ(plan.num_members(), 3u);
  EXPECT_EQ(plan.LeafMembers(), ring);
  EXPECT_EQ(plan.CriticalPathHops(), 2);  // n - 1
}

TEST(Topology, FlatKindAndDegenerateCommunitiesYieldFlatPlans) {
  const std::vector<size_t> many = Iota(12);
  EXPECT_TRUE(AggregationTopology::Build(many, TopologyConfig{}, 0).flat());
  // A hierarchy over <= 2 members cannot form two leaf rings; it must
  // degenerate to flat rather than build a pointless one-ring tree.
  const std::vector<size_t> one = {7};
  const std::vector<size_t> two = {3, 9};
  EXPECT_TRUE(AggregationTopology::Build(one, Hier(2), 0).flat());
  EXPECT_TRUE(AggregationTopology::Build(two, Hier(2), 0).flat());
  EXPECT_EQ(AggregationTopology::Build(two, Hier(2), 0).LeafMembers(), two);
}

TEST(Topology, DeterministicFromSeedAndWindow) {
  const std::vector<size_t> members = Iota(16);
  const AggregationTopology a = AggregationTopology::Build(members, Hier(4), 3);
  const AggregationTopology b = AggregationTopology::Build(members, Hier(4), 3);
  ASSERT_EQ(a.levels().size(), b.levels().size());
  for (size_t l = 0; l < a.levels().size(); ++l) {
    EXPECT_EQ(a.levels()[l], b.levels()[l]) << "level " << l;
  }
}

TEST(Topology, WindowAdvanceReElectsLeaders) {
  // The churn-epoch property: the plan is keyed by window, so epoch
  // advance re-draws every leader election while the ring STRUCTURE
  // (contiguous chunks) never moves.  Across a handful of windows the
  // leader sets must not all coincide.
  const std::vector<size_t> members = Iota(16);
  const TopologyConfig config = Hier(4);
  const AggregationTopology base =
      AggregationTopology::Build(members, config, 0);
  bool any_leader_moved = false;
  for (int w = 1; w <= 4; ++w) {
    const AggregationTopology plan =
        AggregationTopology::Build(members, config, w);
    ASSERT_EQ(plan.levels().size(), base.levels().size());
    for (size_t l = 0; l < base.levels().size(); ++l) {
      ASSERT_EQ(plan.levels()[l].rings.size(), base.levels()[l].rings.size());
      for (size_t r = 0; r < base.levels()[0].rings.size() && l == 0; ++r) {
        // Leaf membership is window-invariant (chunking ignores the
        // window); only the elections move.
        EXPECT_EQ(plan.levels()[0].rings[r].members,
                  base.levels()[0].rings[r].members);
      }
      for (size_t r = 0; r < base.levels()[l].rings.size(); ++r) {
        if (plan.levels()[l].rings[r].leader_pos !=
            base.levels()[l].rings[r].leader_pos) {
          any_leader_moved = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_leader_moved);
}

TEST(Topology, SeedChangesElections) {
  const std::vector<size_t> members = Iota(16);
  const AggregationTopology a =
      AggregationTopology::Build(members, Hier(4, 1), 0);
  const AggregationTopology b =
      AggregationTopology::Build(members, Hier(4, 2), 0);
  bool any_leader_differs = false;
  ASSERT_EQ(a.levels().size(), b.levels().size());
  for (size_t l = 0; l < a.levels().size(); ++l) {
    for (size_t r = 0; r < a.levels()[l].rings.size(); ++r) {
      if (a.levels()[l].rings[r].leader_pos !=
          b.levels()[l].rings[r].leader_pos) {
        any_leader_differs = true;
      }
    }
  }
  EXPECT_TRUE(any_leader_differs);
}

TEST(Topology, EveryMemberInExactlyOneLeafRingInOriginalOrder) {
  // Members need not be 0..n-1 — coalitions pass arbitrary party
  // indices.  The leaves must partition them, contiguously, in order.
  const std::vector<size_t> members = {9, 2, 14, 0, 5, 11, 7, 3, 8, 1, 12};
  for (int fanout : {2, 3, 4, 8}) {
    const AggregationTopology plan =
        AggregationTopology::Build(members, Hier(fanout), 1);
    EXPECT_EQ(plan.LeafMembers(), members) << "fanout " << fanout;
    EXPECT_EQ(plan.num_members(), members.size()) << "fanout " << fanout;
    std::multiset<size_t> seen;
    for (const TopologyRing& ring : plan.levels()[0].rings) {
      ASSERT_FALSE(ring.members.empty());
      ASSERT_LT(ring.leader_pos, ring.members.size());
      for (size_t m : ring.members) seen.insert(m);
    }
    EXPECT_EQ(seen, std::multiset<size_t>(members.begin(), members.end()));
  }
}

TEST(Topology, LeaderChainsClimbToASingleRoot) {
  for (size_t n : {5u, 8u, 16u, 33u, 100u}) {
    for (int fanout : {2, 4, 8}) {
      const AggregationTopology plan =
          AggregationTopology::Build(Iota(n), Hier(fanout), 2);
      ASSERT_GE(plan.levels().size(), 2u) << n << "/" << fanout;
      EXPECT_EQ(plan.levels().back().rings.size(), 1u) << n << "/" << fanout;
      for (size_t l = 0; l + 1 < plan.levels().size(); ++l) {
        // Acyclic by construction: level l+1 is exactly level l's
        // leaders, and its ring count strictly decreases.
        std::vector<size_t> above;
        for (const TopologyRing& ring : plan.levels()[l + 1].rings) {
          above.insert(above.end(), ring.members.begin(), ring.members.end());
        }
        EXPECT_EQ(above, LeadersOf(plan.levels()[l]))
            << n << "/" << fanout << " level " << l;
        EXPECT_LT(plan.levels()[l + 1].rings.size(),
                  plan.levels()[l].rings.size())
            << n << "/" << fanout << " level " << l;
      }
    }
  }
}

TEST(Topology, FanoutBoundsRingSizes) {
  const AggregationTopology plan =
      AggregationTopology::Build(Iota(33), Hier(4), 0);
  for (const TopologyLevel& level : plan.levels()) {
    for (const TopologyRing& ring : level.rings) {
      EXPECT_LE(ring.members.size(), 4u);
    }
  }
}

TEST(Topology, CriticalPathStrictlyBelowFlat) {
  // The acceptance claim: for n >= 8 every hierarchical plan beats the
  // flat ring's n-1 sequential hops (the bench sweeps the same grid).
  for (size_t n : {8u, 16u, 33u}) {
    const int flat_hops =
        AggregationTopology::Flat(Iota(n)).CriticalPathHops();
    EXPECT_EQ(flat_hops, static_cast<int>(n) - 1);
    for (int fanout : {2, 4, 8}) {
      const AggregationTopology plan =
          AggregationTopology::Build(Iota(n), Hier(fanout), 0);
      EXPECT_LT(plan.CriticalPathHops(), flat_hops) << n << "/" << fanout;
      EXPECT_GT(plan.CriticalPathHops(), 0) << n << "/" << fanout;
    }
  }
}

// --- plan execution (MessageBus) --------------------------------------

std::vector<Party> MakeParties(const std::vector<double>& nets,
                               crypto::Rng& rng) {
  std::vector<Party> parties;
  for (size_t i = 0; i < nets.size(); ++i) {
    grid::AgentParams params;
    parties.emplace_back(static_cast<net::AgentId>(i), params);
    grid::WindowState st;
    st.generation_kwh = nets[i] > 0 ? nets[i] : 0.0;
    st.load_kwh = nets[i] < 0 ? -nets[i] : 0.0;
    parties.back().BeginWindow(st, int64_t{1} << 30, rng);
  }
  return parties;
}

TEST(TopologyExecution, HierarchicalSumEqualsFlatBitForBit) {
  // Same seed, same parties, same members: the hierarchical plan must
  // deliver not just the same SUM but the IDENTICAL ciphertext (the
  // product mod n^2 is commutative), having consumed the identical
  // ctx.rng prefix (asserted via the next draw after the aggregation).
  const std::vector<double> nets = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                                    7.0, 8.0};
  const std::vector<size_t> ring = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto run = [&](const AggregationTopology& plan,
                       crypto::PaillierCiphertext& out, uint64_t& next_draw) {
    crypto::DeterministicRng rng(5);
    std::vector<Party> parties = MakeParties(nets, rng);
    parties[0].EnsureKeys(128, rng);
    net::MessageBus bus(static_cast<int>(nets.size()));
    std::vector<net::Endpoint> eps = bus.endpoints();
    PemConfig cfg;
    cfg.key_bits = 128;
    ProtocolContext ctx{eps, rng, cfg};
    out = RingAggregate(ctx, parties[0].public_key(), parties, plan,
                        [](const Party& p) { return p.net_raw(); },
                        parties[0].id())
              .ct;
    EXPECT_EQ(parties[0].private_key().DecryptSigned(out), 36'000'000);
    next_draw = rng.NextU64();
  };
  crypto::PaillierCiphertext flat_ct, hier_ct;
  uint64_t flat_draw = 0, hier_draw = 1;
  run(AggregationTopology::Flat(ring), flat_ct, flat_draw);
  for (int fanout : {2, 3, 4}) {
    const AggregationTopology plan =
        AggregationTopology::Build(ring, Hier(fanout), 0);
    ASSERT_FALSE(plan.flat()) << fanout;
    run(plan, hier_ct, hier_draw);
    EXPECT_EQ(hier_ct.value, flat_ct.value) << "fanout " << fanout;
    EXPECT_EQ(hier_draw, flat_draw) << "fanout " << fanout;
  }
}

TEST(TopologyExecution, PlanRingTopologyFollowsConfigAndWindow) {
  crypto::DeterministicRng rng(6);
  std::vector<Party> parties =
      MakeParties({1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, rng);
  net::MessageBus bus(8);
  std::vector<net::Endpoint> eps = bus.endpoints();
  PemConfig cfg;
  cfg.key_bits = 128;
  cfg.topology = Hier(2);
  ProtocolContext ctx{eps, rng, cfg};
  const std::vector<size_t> members = Iota(8);
  const AggregationTopology w0 = PlanRingTopology(ctx, members);
  EXPECT_FALSE(w0.flat());
  EXPECT_EQ(w0.levels()[0].rings.size(), 4u);
  // The plan is keyed by ctx.window — RunPemWindow sets it, so churn
  // epochs re-plan without any extra wiring.
  ctx.window = 1;
  const AggregationTopology w1 = PlanRingTopology(ctx, members);
  EXPECT_EQ(w1.levels()[0].rings.size(), 4u);
  EXPECT_EQ(w1.LeafMembers(), w0.LeafMembers());
}

// --- backend-matrix market parity -------------------------------------
//
// The same harness as test_transcript_parity's window matrix, but
// with a hierarchical aggregation plan: per fan-out, the four rows
// (the serial bus at 1 and 4 threads, process, shm) must agree
// with each other in FULL (prices, trades, total and per-agent ledger
// bytes, per-sender transcript), and agree with the
// flat baseline on the market outcome (the transcript legitimately differs
// in shape — that byte-profile delta is the point of the hierarchy).

struct WindowRun {
  std::vector<net::Message> messages;
  WindowRecord record;
  uint64_t transport_total_bytes = 0;
  std::vector<net::TrafficStats> per_agent;
};

market::AgentWindowInput Agent(double g, double l, double k = 1.0) {
  market::AgentWindowInput in;
  in.params.preference_k = k;
  in.params.battery_epsilon = 0.9;
  in.state.generation_kwh = g;
  in.state.load_kwh = l;
  return in;
}

// Eight agents so the seller and buyer coalitions are big enough for a
// fanout-2 hierarchy to actually form sub-rings.
const std::vector<market::AgentWindowInput> kMarket = {
    Agent(1.7, 0.3, 0.83), Agent(0.9, 0.2, 1.21), Agent(0.0, 1.4),
    Agent(0.1, 0.8),       Agent(0.0, 0.6),       Agent(2.2, 0.4, 1.05),
    Agent(1.3, 0.2, 0.97), Agent(0.0, 1.1),
};

PemConfig TopologyWindowConfig(const TopologyConfig& topology) {
  PemConfig cfg;
  cfg.key_bits = 128;
  cfg.topology = topology;
  return cfg;
}

WindowRun RunWindowInProcess(const net::ExecutionPolicy& policy,
                             const TopologyConfig& topology, uint64_t seed) {
  WindowRun run;
  std::unique_ptr<net::Transport> bus = net::MakeTransport(
      policy.transport_kind, static_cast<int>(kMarket.size()));
  std::vector<net::Endpoint> eps = bus->endpoints();
  bus->SetObserver(
      [&run](const net::Message& m) { run.messages.push_back(m); });
  crypto::DeterministicRng rng(seed);
  const PemConfig cfg = TopologyWindowConfig(topology);
  std::vector<Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
    parties.back().BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
  }
  ProtocolContext ctx{eps, rng, cfg, nullptr, policy};
  bus->ResetStats();
  run.record = RunPemWindow(ctx, parties).record;
  run.transport_total_bytes = bus->total_bytes();
  for (size_t i = 0; i < kMarket.size(); ++i) {
    run.per_agent.push_back(bus->stats(static_cast<net::AgentId>(i)));
  }
  return run;
}

WindowRun RunWindowForked(net::TransportKind kind,
                          const TopologyConfig& topology, uint64_t seed) {
  WindowRun run;
  const PemConfig cfg = TopologyWindowConfig(topology);
  const net::ExecutionPolicy policy{kind, 1};
  crypto::DeterministicRng rng(seed);
  std::vector<Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
  }
  // Each child replays the deterministic script over its fork copy —
  // including cfg.topology, so all processes derive the identical plan.
  net::AgentSupervisor::ChildMain child_main =
      [&cfg, &policy, &rng, &parties](net::AgentId self, net::Transport& wire,
                                      net::ControlChannel& ctl) -> int {
    std::vector<net::Endpoint> eps = wire.endpoints();
    ProtocolContext ctx{eps, rng, cfg, nullptr, policy};
    AgentDriver::Callbacks callbacks;
    callbacks.begin_window = [&](int) {
      for (size_t i = 0; i < kMarket.size(); ++i) {
        parties[i].BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
      }
    };
    AgentDriver driver(self, ctx, parties, callbacks);
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
  transport.ResetStats();
  transport.SetObserver(
      [&run](const net::Message& m) { run.messages.push_back(m); });
  run.record = RunForkedWindow(transport, 0);
  run.transport_total_bytes = transport.total_bytes();
  for (size_t i = 0; i < kMarket.size(); ++i) {
    run.per_agent.push_back(transport.stats(static_cast<net::AgentId>(i)));
  }
  transport.SetObserver(nullptr);
  transport.Shutdown();
  return run;
}

// Identical market outcome — the plan-shape-independent core.
void ExpectSameMarketOutcome(const WindowRun& a, const WindowRun& b) {
  EXPECT_EQ(b.record.type, a.record.type);
  EXPECT_DOUBLE_EQ(b.record.price, a.record.price);
  ASSERT_EQ(b.record.trades.size(), a.record.trades.size());
  for (size_t i = 0; i < a.record.trades.size(); ++i) {
    EXPECT_EQ(b.record.trades[i].seller_index, a.record.trades[i].seller_index)
        << i;
    EXPECT_EQ(b.record.trades[i].buyer_index, a.record.trades[i].buyer_index)
        << i;
    EXPECT_DOUBLE_EQ(b.record.trades[i].energy_kwh,
                     a.record.trades[i].energy_kwh)
        << i;
    EXPECT_DOUBLE_EQ(b.record.trades[i].payment, a.record.trades[i].payment)
        << i;
  }
}

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

// Full backend parity between two runs of the SAME plan shape.
void ExpectFullParity(const WindowRun& serial, const WindowRun& other,
                      bool strict_order) {
  ExpectSameMarketOutcome(serial, other);
  EXPECT_EQ(other.record.bus_bytes, serial.record.bus_bytes);
  EXPECT_EQ(other.transport_total_bytes, serial.transport_total_bytes);
  // Ledger-accounted: the transport's own total equals the canonical
  // per-window accounting, hierarchy or not.
  EXPECT_EQ(serial.transport_total_bytes, serial.record.bus_bytes);
  ASSERT_EQ(other.per_agent.size(), serial.per_agent.size());
  for (size_t a = 0; a < serial.per_agent.size(); ++a) {
    EXPECT_TRUE(other.per_agent[a] == serial.per_agent[a])
        << "per-agent traffic diverges for agent " << a;
  }
  if (strict_order) {
    ASSERT_EQ(other.messages.size(), serial.messages.size());
    for (size_t i = 0; i < serial.messages.size(); ++i) {
      EXPECT_TRUE(other.messages[i] == serial.messages[i])
          << "transcript diverges at message " << i;
    }
  } else {
    ExpectSameTranscriptPerSender(serial.messages, other.messages);
  }
  EXPECT_FALSE(serial.messages.empty());
}

void BackendMatrixRow(int fanout) {
  const TopologyConfig flat;  // kFlat
  const TopologyConfig hier = Hier(fanout);
  const uint64_t seed = 42;
  const WindowRun flat_serial =
      RunWindowInProcess(net::ExecutionPolicy::Serial(), flat, seed);
  const WindowRun serial =
      RunWindowInProcess(net::ExecutionPolicy::Serial(), hier, seed);
  // The claim under test: plan shape changes the wire, not the market.
  ExpectSameMarketOutcome(flat_serial, serial);
  EXPECT_FALSE(serial.messages.empty());

  const WindowRun parallel =
      RunWindowInProcess(net::ExecutionPolicy::Parallel(4), hier, seed);
  const WindowRun process =
      RunWindowForked(net::TransportKind::kProcess, hier, seed);
  const WindowRun shm = RunWindowForked(net::TransportKind::kShm, hier, seed);
  ExpectFullParity(serial, parallel, /*strict_order=*/true);
  ExpectFullParity(serial, process, /*strict_order=*/false);
  ExpectFullParity(serial, shm, /*strict_order=*/false);
}

// The names keep "Five" so these rows stay comparable with their
// recorded runs; the matrix itself has the four rows above.
TEST(TopologyParity, FiveBackendsFanout2) { BackendMatrixRow(2); }
TEST(TopologyParity, FiveBackendsFanout4) { BackendMatrixRow(4); }
TEST(TopologyParity, FiveBackendsFanout8) { BackendMatrixRow(8); }

}  // namespace
}  // namespace pem::protocol
