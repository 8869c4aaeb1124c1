// The traced run: per-layer metrics, timed from the benchmark's side of
// each module's public functions (no instrumentation inside src/).
//
//   1. core    — one untraced day through core::RunSimulation with a
//                wire tap: time outside the window spans, frames,
//                parent/child CPU, VmPeak.
//   2. protocol — a phase-by-phase replica of RunPemWindow over the
//                recorded window states, on a timing net::Transport
//                decorator; it must reproduce the reference day's
//                price, trades, bus bytes and RNG cursor exactly.
//   3. crypto  — direct seeded calls at the workload's key size.
//   4. net     — frames/s of the workload's median frame size streamed
//                through the workload's own backend.
//   5. grid / market — trace generation and the clearing oracle.
// Spans are kept in memory and written as Chrome trace-event JSON
// (viewable in Perfetto) when the run ends.
#include "traced.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/secure_compare.h"
#include "market/clearing.h"
#include "net/bus.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "protocol/audit.h"
#include "protocol/context.h"
#include "protocol/distribution.h"
#include "protocol/key_directory.h"
#include "protocol/market_eval.h"
#include "protocol/pricing.h"
#include "protocol/window_scheduler.h"

namespace pembench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- spans ------------------------------------------------------------

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int window = -1;
  };

  // Opens a span under the innermost open one.
  void Begin(const char* name, int window = -1) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.window = window;
    s.start = Clock::now();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  // Closes the innermost span and returns its duration in seconds.
  double End() {
    Span& s = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    s.end = Clock::now();
    return Seconds(s.end - s.start);
  }

  // Chrome trace-event JSON: one complete ("X") event per span, with
  // the parent span's index and the window id as arguments.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << Seconds(s.start - t0) * 1e6
          << ", \"dur\": " << Seconds(s.end - s.start) * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"window\": " << s.window << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- timing transport decorator ----------------------------------------

// Forwards to an in-process backend and counts Send calls, ring-hop
// frames and the time spent inside Send and Receive.  Thread-safe: the
// concurrent bus takes sends from compute workers.
class TimedTransport final : public net::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  int num_agents() const override { return inner_->num_agents(); }
  void Send(net::Message msg) override {
    const bool ring = msg.type == protocol::kMsgRingHop ||
                      msg.type == protocol::kMsgRingFinal;
    const Clock::time_point t0 = Clock::now();
    inner_->Send(std::move(msg));
    send_ns_ += (Clock::now() - t0).count();
    ++send_calls_;
    if (ring) ++ring_frames_;
  }
  std::optional<net::Message> Receive(net::AgentId agent) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<net::Message> m = inner_->Receive(agent);
    recv_ns_ += (Clock::now() - t0).count();
    return m;
  }
  bool HasMessage(net::AgentId agent) const override {
    return inner_->HasMessage(agent);
  }
  net::TrafficStats stats(net::AgentId agent) const override {
    return inner_->stats(agent);
  }
  uint64_t total_bytes() const override { return inner_->total_bytes(); }
  uint64_t total_messages() const override {
    return inner_->total_messages();
  }
  double AverageBytesPerAgent() const override {
    return inner_->AverageBytesPerAgent();
  }
  void ResetStats() override { inner_->ResetStats(); }
  void SetObserver(Observer observer) override {
    inner_->SetObserver(std::move(observer));
  }
  std::optional<net::TransportFault> fault() const override {
    return inner_->fault();
  }

  uint64_t send_calls() const { return send_calls_; }
  uint64_t ring_frames() const { return ring_frames_; }
  double send_s() const { return 1e-9 * static_cast<double>(send_ns_.load()); }
  double recv_s() const { return 1e-9 * static_cast<double>(recv_ns_.load()); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::atomic<uint64_t> send_calls_{0};
  std::atomic<uint64_t> ring_frames_{0};
  std::atomic<int64_t> send_ns_{0};
  std::atomic<int64_t> recv_ns_{0};
};

// --- one untraced reference day -----------------------------------------

struct Day {
  core::SimulationResult result;
  std::vector<ObservedWindow> observed;
  std::vector<uint64_t> payloads;
  double wall_s = 0.0;
  double parent_cpu_s = 0.0;
  double child_cpu_s = 0.0;
};

Day RunDay(const Inputs& in, const core::SimulationConfig& cfg_in) {
  Day day;
  TrafficTap tap;
  core::SimulationConfig cfg = cfg_in;
  cfg.bus_observer = tap.Observer();
  const double self0 = SelfCpuSeconds();
  const double child0 = ChildrenCpuSeconds();
  const Stopwatch sw;
  day.result = core::RunSimulation(in.trace, cfg);
  day.wall_s = sw.ElapsedSeconds();
  day.parent_cpu_s = SelfCpuSeconds() - self0;
  day.child_cpu_s = ChildrenCpuSeconds() - child0;
  auto observed = tap.Split(day.result.windows);
  if (!observed) throw std::runtime_error("wire capture does not split");
  day.observed = std::move(*observed);
  day.payloads = tap.PayloadSizes();
  return day;
}

// --- the phase-by-phase replica -------------------------------------------

enum Phase { kAudit, kCoalitions, kMarketEval, kPricing, kDistribution,
             kPhases };
constexpr const char* kPhaseNames[kPhases] = {
    "protocol.audit", "protocol.coalitions", "protocol.market_eval",
    "protocol.pricing", "protocol.distribution"};

struct ReplicaTotals {
  int market_windows = 0;
  double phase_s[kPhases] = {};
  double window_s = 0.0;
  uint64_t frames[kPhases] = {};
  uint64_t bytes[kPhases] = {};
  uint64_t keygens = 0;
  uint64_t ring_frames = 0;
  uint64_t pool_hits = 0;
  uint64_t send_calls = 0;
  double send_s = 0.0;
  double recv_s = 0.0;
  std::vector<double> market_window_s;
  uint64_t mismatches = 0;
};

uint64_t MessagesSent(std::span<const net::Endpoint> eps) {
  uint64_t sum = 0;
  for (const net::Endpoint& ep : eps) sum += ep.stats().messages_sent;
  return sum;
}

bool SameTrades(const std::vector<protocol::Trade>& mine,
                const ObservedWindow& wire) {
  if (mine.size() != wire.trades.size()) return false;
  for (const protocol::Trade& t : mine) {
    const auto it = std::find_if(
        wire.trades.begin(), wire.trades.end(), [&](const ObservedTrade& o) {
          return o.seller == static_cast<net::AgentId>(t.seller_index) &&
                 o.buyer == static_cast<net::AgentId>(t.buyer_index);
        });
    if (it == wire.trades.end() || it->energy_kwh != t.energy_kwh ||
        it->payment != t.payment) {
      return false;
    }
  }
  return true;
}

// Replays `ref`'s windows phase by phase, in-process on `policy`,
// mirroring RunSimulation's in-process loop: BeginWindow, the window
// (RunPemWindow's body, one span per phase), then the idle-time pool
// refill.  Every window must reproduce the reference day exactly.
ReplicaTotals Replay(const Inputs& in, const net::ExecutionPolicy& policy,
                     const Day& ref, SpanRecorder& spans) {
  const core::SimulationConfig& cfg = in.config;
  const protocol::PemConfig& pem = cfg.pem;
  const int n = in.trace.num_homes();
  TimedTransport bus(net::MakeTransport(policy.transport_kind, n));
  std::vector<net::Endpoint> endpoints = bus.endpoints();
  std::vector<protocol::Party> parties;
  for (int h = 0; h < n; ++h) {
    parties.emplace_back(h, in.trace.homes[static_cast<size_t>(h)].params);
  }
  crypto::DeterministicRng rng(cfg.crypto_seed);
  crypto::PaillierPoolRegistry pools;
  protocol::KeyDirectory directory;
  protocol::WindowScheduler scheduler(
      {cfg.windows_in_flight, policy.worker_count()});

  ReplicaTotals tot;
  for (size_t i = 0; i < ref.result.windows.size(); ++i) {
    const core::WindowRecord& rec = ref.result.windows[i];
    const std::vector<grid::WindowState>& states = ref.result.resolved_states[i];
    const int w = rec.window;

    spans.Begin("protocol.begin_window", w);
    for (int h = 0; h < n; ++h) {
      parties[static_cast<size_t>(h)].BeginWindow(
          states[static_cast<size_t>(h)], pem.nonce_bound, rng);
    }
    spans.End();

    // Pool depth before the window, read only for keys whose pool the
    // previous refill registered (PoolFor would create any other).
    std::vector<std::pair<crypto::PaillierRandomnessPool*, size_t>> depth;
    uint64_t keyed_before = 0;
    for (const protocol::Party& p : parties) {
      if (!p.HasKeys()) continue;
      ++keyed_before;
      // With owner-CRT refills every keyed party's pool exists.
      if (pem.precompute_encryption && pem.crt_encryption) {
        crypto::PaillierRandomnessPool& pool = pools.PoolFor(p.public_key());
        depth.emplace_back(&pool, pool.available());
      }
    }
    const uint64_t ring_before = bus.ring_frames();
    const uint64_t calls_before = bus.send_calls();
    const double send_before = bus.send_s();
    const double recv_before = bus.recv_s();

    protocol::ProtocolContext ctx{endpoints, rng, pem,
                                  pem.precompute_encryption ? &pools : nullptr,
                                  policy, &directory};
    ctx.scheduler = scheduler.fused() ? &scheduler : nullptr;
    ctx.window = w;

    double phase_s[kPhases] = {};
    uint64_t frames[kPhases] = {};
    uint64_t bytes[kPhases] = {};
    auto phase = [&](Phase ph, const std::function<void()>& body) {
      const uint64_t f0 = MessagesSent(endpoints);
      const uint64_t b0 = net::TotalBytesSent(endpoints);
      spans.Begin(kPhaseNames[ph], w);
      body();
      phase_s[ph] = spans.End();
      frames[ph] = MessagesSent(endpoints) - f0;
      bytes[ph] = net::TotalBytesSent(endpoints) - b0;
    };

    spans.Begin("protocol.window", w);
    const uint64_t bytes_before = net::TotalBytesSent(endpoints);
    market::MarketType type = market::MarketType::kNoMarket;
    double price = pem.market.retail_price;
    std::vector<protocol::Trade> trades;
    phase(kAudit, [&] { (void)protocol::RunAuditRound(ctx, parties); });
    protocol::Coalitions coalitions;
    phase(kCoalitions,
          [&] { coalitions = protocol::FormCoalitions(parties); });
    if (!coalitions.sellers.empty() && !coalitions.buyers.empty()) {
      protocol::MarketEvalResult eval;
      phase(kMarketEval, [&] {
        eval = protocol::RunPrivateMarketEvaluation(ctx, parties, coalitions);
      });
      if (eval.general_market) {
        type = market::MarketType::kGeneral;
        phase(kPricing, [&] {
          price = protocol::RunPrivatePricing(ctx, parties, coalitions).price;
        });
      } else {
        type = market::MarketType::kExtreme;
        price = pem.market.price_floor;
      }
      phase(kDistribution, [&] {
        trades = protocol::RunPrivateDistribution(ctx, parties, coalitions,
                                                  eval.general_market, price)
                     .trades;
      });
    }
    const uint64_t bus_bytes = net::TotalBytesSent(endpoints) - bytes_before;
    const uint64_t cursor = rng.Cursor();
    const double window_s = spans.End();

    uint64_t keyed_after = 0;
    for (const protocol::Party& p : parties) keyed_after += p.HasKeys();
    uint64_t hits = 0;
    for (const auto& [pool, before] : depth) hits += before - pool->available();

    if (pem.precompute_encryption) {
      spans.Begin("crypto.refill", w);
      if (pem.crt_encryption) {
        for (const protocol::Party& p : parties) {
          if (p.HasKeys()) pools.AttachOwner(p.private_key());
        }
      }
      pools.RefillAll(pem.encryption_pool_target, rng, policy);
      spans.End();
    }

    if (type != rec.type || price != rec.price || bus_bytes != rec.bus_bytes ||
        cursor != rec.rng_cursor || !SameTrades(trades, ref.observed[i])) {
      std::fprintf(stderr, "replica: window %d differs from RunPemWindow\n",
                   w);
      ++tot.mismatches;
    }
    if (type == market::MarketType::kNoMarket) continue;
    ++tot.market_windows;
    tot.market_window_s.push_back(window_s);
    tot.window_s += window_s;
    for (int ph = 0; ph < kPhases; ++ph) {
      tot.phase_s[ph] += phase_s[ph];
      tot.frames[ph] += frames[ph];
      tot.bytes[ph] += bytes[ph];
    }
    tot.keygens += keyed_after - keyed_before;
    tot.ring_frames += bus.ring_frames() - ring_before;
    tot.pool_hits += hits;
    tot.send_calls += bus.send_calls() - calls_before;
    tot.send_s += bus.send_s() - send_before;
    tot.recv_s += bus.recv_s() - recv_before;
  }
  return tot;
}

// --- crypto unit costs ------------------------------------------------

template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) s.push_back(fn());
  return Median(s);
}

template <typename Fn>
double TimeOnce(Fn&& fn) {
  const Stopwatch sw;
  fn();
  return sw.ElapsedSeconds();
}

void MeasureCrypto(int key_bits, uint64_t seed, SpanRecorder& spans,
                   std::vector<Metric>& out) {
  crypto::DeterministicRng rng(seed ^ 0xC0FFEEull);
  const int reps = 16;

  spans.Begin("crypto.keygen");
  crypto::PaillierKeyPair keys;
  const double keygen_s = MedianOf(key_bits >= 2048 ? 3 : 5, [&] {
    return TimeOnce([&] { keys = crypto::GeneratePaillierKeyPair(key_bits, rng); });
  });
  spans.End();
  const crypto::PaillierPublicKey& pk = keys.pub;
  const crypto::PaillierPrivateKey& sk = keys.priv;
  const crypto::PaillierCrtEncryptor crt(sk);
  const crypto::BigInt m = pk.EncodeSigned(123'456'789);

  spans.Begin("crypto.encrypt");
  crypto::PaillierCiphertext ct;
  const double encrypt_s = MedianOf(reps, [&] {
    const crypto::BigInt r = pk.SampleRandomness(rng);
    return TimeOnce([&] { ct = pk.EncryptWithRandomness(m, r); });
  });
  spans.End();

  spans.Begin("crypto.encrypt_crt");
  const double encrypt_crt_s = MedianOf(reps, [&] {
    const crypto::BigInt r = pk.SampleRandomness(rng);
    return TimeOnce([&] { ct = crt.EncryptWithRandomness(m, r); });
  });
  spans.End();

  spans.Begin("crypto.encrypt_pooled");
  const crypto::BigInt factor = crt.SampleRandomnessFactor(rng);
  const int batch = 64;
  const double encrypt_pooled_s = MedianOf(8, [&] {
    return TimeOnce([&] {
             for (int i = 0; i < batch; ++i) ct = pk.EncryptWithFactor(m, factor);
           }) /
           batch;
  });
  spans.End();

  spans.Begin("crypto.decrypt");
  crypto::BigInt plain;
  const double decrypt_s =
      MedianOf(reps, [&] { return TimeOnce([&] { plain = sk.Decrypt(ct); }); });
  spans.End();
  if (plain != m) throw std::runtime_error("crypto probe: decrypt mismatch");

  spans.Begin("crypto.scalar_mul");
  const crypto::BigInt k(int64_t{1} << 40);
  const double scalar_mul_s = MedianOf(
      reps, [&] { return TimeOnce([&] { (void)pk.ScalarMul(ct, k); }); });
  spans.End();

  spans.Begin("crypto.refill");
  const size_t factors = 64;
  const double refill_s = MedianOf(2, [&] {
    crypto::PaillierRandomnessPool pool(pk);
    pool.AttachCrtEncryptor(crypto::PaillierCrtEncryptor(sk));
    return TimeOnce([&] { pool.Refill(factors, rng, 4); });
  });
  spans.End();

  spans.Begin("crypto.compare");
  net::MessageBus bus(2);
  std::vector<net::Endpoint> eps = bus.endpoints();
  const crypto::SecureCompareConfig compare_cfg;
  const double compare_s = MedianOf(5, [&] {
    const uint64_t x = rng.NextU64() >> 1;
    const uint64_t y = rng.NextU64() >> 1;
    bool less = false;
    const double s = TimeOnce([&] {
      less = crypto::SecureCompareLess(eps[0], x, eps[1], y, compare_cfg, rng);
    });
    if (less != (x < y)) throw std::runtime_error("crypto probe: compare");
    return s;
  });
  spans.End();

  out.push_back({"crypto.encrypt_s", encrypt_s, "s"});
  out.push_back({"crypto.encrypt_crt_s", encrypt_crt_s, "s"});
  out.push_back({"crypto.encrypt_pooled_s", encrypt_pooled_s, "s"});
  out.push_back({"crypto.decrypt_s", decrypt_s, "s"});
  out.push_back({"crypto.scalar_mul_s", scalar_mul_s, "s"});
  out.push_back({"crypto.keygen_s", keygen_s, "s"});
  out.push_back({"crypto.refill_s_per_factor",
                 refill_s / static_cast<double>(factors), "s"});
  out.push_back({"crypto.compare_s", compare_s, "s"});
}

// --- transport frame rate ------------------------------------------------

// The streaming script of bench/micro_transport: agent 0 sends frames
// round-robin to every other agent, each receiver consumes its share.
void StreamScript(std::vector<net::Endpoint>& eps, int frames,
                  const std::vector<uint8_t>& payload) {
  const int n = static_cast<int>(eps.size());
  for (int i = 0; i < frames; ++i) {
    const net::AgentId to = 1 + (i % (n - 1));
    eps[0].Send(to, /*type=*/100, payload);
    (void)eps[static_cast<size_t>(to)].Receive();
  }
}

// Frames per second through the workload's backend, driven directly:
// in-process on one thread, forked as every child's script.
double MeasureFrameRate(const Workload& w, int frames, size_t payload_bytes) {
  const std::vector<uint8_t> payload(payload_bytes, 0x5A);
  if (!w.forked()) {
    std::unique_ptr<net::Transport> bus =
        net::MakeTransport(w.policy.transport_kind, w.homes);
    std::vector<net::Endpoint> eps = bus->endpoints();
    const Stopwatch sw;
    StreamScript(eps, frames, payload);
    return frames / sw.ElapsedSeconds();
  }
  net::AgentSupervisor::ChildMain child_main =
      [frames, &payload](net::AgentId, net::Transport& wire,
                         net::ControlChannel& ctl) -> int {
    for (;;) {
      const net::ControlRecord cmd = ctl.Read(/*timeout_ms=*/120'000);
      if (cmd.tag == net::kCtlCmdShutdown) {
        ctl.Write(net::kCtlRepDone);
        return 0;
      }
      std::vector<net::Endpoint> eps = wire.endpoints();
      StreamScript(eps, frames, payload);
      ctl.Write(net::kCtlRepWindow);
    }
  };
  std::unique_ptr<net::AgentSupervisor> owner;
  if (w.policy.transport_kind == net::TransportKind::kShm) {
    owner = std::make_unique<net::ShmTransport>(w.homes, child_main);
  } else {
    owner = std::make_unique<net::ProcessTransport>(w.homes, child_main);
  }
  const Stopwatch sw;
  owner->CommandAll(net::kCtlCmdRun);
  for (net::AgentId a = 0; a < w.homes; ++a) (void)owner->ReadRecord(a);
  owner->SyncLedger();
  const double secs = sw.ElapsedSeconds();
  owner->Shutdown();
  return frames / secs;
}

double PerWindow(double total, int windows) {
  return windows > 0 ? total / windows : 0.0;
}

}  // namespace

int RunTraced(const Workload& w, uint64_t seed, double seconds,
              const std::string& spans_path) {
  SpanRecorder spans;
  std::vector<Metric> metrics;
  const Inputs in = MakeInputs(w, seed, DayWindows(w, seconds));

  // grid: trace generation; core: set-up and one untraced day.
  spans.Begin("grid.trace");
  const double trace_s = MedianOf(3, [&] {
    return TimeOnce([&] { (void)grid::GenerateCommunityTrace(in.trace_config); });
  });
  spans.End();
  spans.Begin("core.setup");
  const double setup_s = MeasureSetup(in);
  spans.End();
  spans.Begin("core.day");
  const Day day = RunDay(in, in.config);
  spans.End();
  const double vm_peak_mib = ProcStatusKib("VmPeak") / 1024.0;
  const auto& records = day.result.windows;
  const int executed = static_cast<int>(records.size());

  // The correctness gate on the workload's own day, and the clearing
  // oracle's own cost.
  uint64_t failed = 0;
  spans.Begin("market.clear");
  double clear_total_s = 0.0;
  for (size_t i = 0; i < records.size(); ++i) {
    std::string why;
    const Stopwatch sw;
    const bool ok = CheckWindow(in.trace, in.config, records[i],
                                day.result.resolved_states[i],
                                &day.observed[i], &why);
    clear_total_s += sw.ElapsedSeconds();
    if (!ok) {
      std::fprintf(stderr, "gate: %s\n", why.c_str());
      ++failed;
    }
  }
  spans.End();

  // protocol: the replica runs in-process — on the workload's own
  // backend, or the serial bus for the forked workloads, whose
  // reference day is then one more in-process day.
  const net::ExecutionPolicy replica_policy =
      w.forked() ? net::ExecutionPolicy::Serial() : w.policy;
  Day in_process;
  const Day* ref = &day;
  if (w.forked()) {
    core::SimulationConfig cfg = in.config;
    cfg.policy = replica_policy;
    spans.Begin("core.reference_day");
    in_process = RunDay(in, cfg);
    spans.End();
    ref = &in_process;
    for (size_t i = 0; i < records.size(); ++i) {
      if (i >= ref->result.windows.size() ||
          ref->result.windows[i].bus_bytes != records[i].bus_bytes) {
        std::fprintf(stderr, "window %d: forked bus bytes differ from the "
                     "in-process day\n", records[i].window);
        ++failed;
      }
    }
  }
  spans.Begin("protocol.replica");
  const ReplicaTotals rep = Replay(in, replica_policy, *ref, spans);
  spans.End();
  failed += rep.mismatches;

  std::vector<double> ref_window_s;
  for (const core::WindowRecord& r : ref->result.windows) {
    if (r.type != market::MarketType::kNoMarket) {
      ref_window_s.push_back(r.runtime_seconds);
    }
  }

  uint64_t frames = 0;
  for (const ObservedWindow& o : day.observed) frames += o.frames;
  std::vector<double> payloads(day.payloads.begin(), day.payloads.end());
  const size_t median_payload = static_cast<size_t>(Median(payloads));

  spans.Begin("net.frame_rate");
  const double frame_rate = MeasureFrameRate(w, 2000, median_payload);
  spans.End();

  const int mw = rep.market_windows;
  double phases_s = 0.0;
  for (const double s : rep.phase_s) phases_s += s;
  metrics.push_back({"core.offwindow_s_per_window",
                     PerWindow(day.wall_s - setup_s -
                                   day.result.total_runtime_seconds,
                               executed),
                     "s"});
  metrics.push_back({"protocol.audit_s", PerWindow(rep.phase_s[kAudit], mw), "s"});
  metrics.push_back({"protocol.coalitions_s",
                     PerWindow(rep.phase_s[kCoalitions], mw), "s"});
  metrics.push_back({"protocol.market_eval_s",
                     PerWindow(rep.phase_s[kMarketEval], mw), "s"});
  metrics.push_back({"protocol.pricing_s",
                     PerWindow(rep.phase_s[kPricing], mw), "s"});
  metrics.push_back({"protocol.distribution_s",
                     PerWindow(rep.phase_s[kDistribution], mw), "s"});
  metrics.push_back({"protocol.unattributed_s",
                     PerWindow(rep.window_s - phases_s, mw), "s"});
  metrics.push_back({"protocol.span_coverage",
                     rep.window_s > 0 ? phases_s / rep.window_s : 0.0,
                     "ratio"});
  const Phase traffic[] = {kMarketEval, kPricing, kDistribution};
  const char* traffic_names[] = {"market_eval", "pricing", "distribution"};
  for (int t = 0; t < 3; ++t) {
    const std::string prefix = std::string("protocol.") + traffic_names[t];
    metrics.push_back({prefix + ".frames",
                       PerWindow(static_cast<double>(rep.frames[traffic[t]]), mw),
                       "count"});
    metrics.push_back({prefix + ".bytes",
                       PerWindow(static_cast<double>(rep.bytes[traffic[t]]), mw),
                       "B"});
  }
  metrics.push_back({"protocol.keygen_per_window",
                     PerWindow(static_cast<double>(rep.keygens), mw), "count"});
  metrics.push_back({"protocol.ring_hops_per_window",
                     PerWindow(static_cast<double>(rep.ring_frames), mw),
                     "count"});
  metrics.push_back(
      {"protocol.pool_hit_ratio",
       rep.ring_frames > 0 ? static_cast<double>(rep.pool_hits) /
                                 static_cast<double>(rep.ring_frames)
                           : 0.0,
       "ratio"});

  MeasureCrypto(w.key_bits, seed, spans, metrics);

  metrics.push_back({"net.send_calls",
                     PerWindow(static_cast<double>(rep.send_calls), mw),
                     "count"});
  metrics.push_back({"net.send_s", PerWindow(rep.send_s, mw), "s"});
  metrics.push_back({"net.recv_s", PerWindow(rep.recv_s, mw), "s"});
  metrics.push_back({"net.frames_per_window",
                     PerWindow(static_cast<double>(frames), executed),
                     "count"});
  metrics.push_back({"net.frame_rate", frame_rate, "1/s"});
  metrics.push_back({"net.parent_cpu_s_per_window",
                     PerWindow(day.parent_cpu_s, executed), "s"});
  metrics.push_back({"net.child_cpu_s_per_window",
                     PerWindow(day.child_cpu_s, executed), "s"});
  metrics.push_back({"net.vm_peak_mb", vm_peak_mib, "MiB"});
  metrics.push_back({"grid.trace_s", trace_s, "s"});
  metrics.push_back({"market.clear_s", PerWindow(clear_total_s, executed), "s"});
  const double traced_p50 = Median(rep.market_window_s);
  metrics.push_back({"trace.window_s_p50", traced_p50, "s"});
  metrics.push_back({"trace.overhead_s", traced_p50 - Median(ref_window_s), "s"});

  if (!spans_path.empty()) spans.Write(spans_path);
  std::printf("traced %s seed %llu: %d windows (%d with a market), replica "
              "on the %s backend, %zu mismatches\n",
              w.name, static_cast<unsigned long long>(seed), executed, mw,
              net::TransportKindName(replica_policy.transport_kind),
              static_cast<size_t>(rep.mismatches));
  const bool correct = failed == 0 && executed > 0;
  PrintResult(correct, static_cast<uint64_t>(std::max(executed, 1)), failed,
              metrics);
  return correct ? 0 : 1;
}

}  // namespace pembench
