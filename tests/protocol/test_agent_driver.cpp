// AgentDriver: one agent's side of a window in a forked process.
//
// The transcript-parity suite proves the four-backend equivalence over
// full windows and days; this suite covers the driver machinery itself:
// the parent's handling of malformed reports, the command loop
// contract, and a protocol window executed by forked per-agent drivers
// whose merged record must equal the serial in-process run — with the
// window's bytes measured from real socketpair traffic by the parent
// router.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "crypto/rng.h"
#include "net/bus.h"
#include "net/process_transport.h"
#include "net/shm_transport.h"
#include "protocol/agent_driver.h"
#include "util/stopwatch.h"

namespace pem::protocol {
namespace {

market::AgentWindowInput Agent(double g, double l, double k = 1.0) {
  market::AgentWindowInput in;
  in.params.preference_k = k;
  in.params.battery_epsilon = 0.9;
  in.state.generation_kwh = g;
  in.state.load_kwh = l;
  return in;
}

const std::vector<market::AgentWindowInput> kMarket = {
    Agent(1.4, 0.2, 0.9), Agent(0.0, 1.1), Agent(0.2, 0.7),
    Agent(1.9, 0.5, 1.1),
};

std::vector<Party> MakeParties(const PemConfig& cfg, crypto::Rng& rng) {
  std::vector<Party> parties;
  for (size_t i = 0; i < kMarket.size(); ++i) {
    parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
    parties.back().BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
  }
  return parties;
}

TEST(AgentDriver, ForkedWindowMatchesSerialWindow) {
  constexpr uint64_t kSeed = 71;
  PemConfig cfg;
  cfg.key_bits = 128;

  // Serial in-process reference.
  crypto::DeterministicRng serial_rng(kSeed);
  std::vector<Party> serial_parties = MakeParties(cfg, serial_rng);
  net::MessageBus serial_bus(static_cast<int>(kMarket.size()));
  std::vector<net::Endpoint> serial_eps = serial_bus.endpoints();
  ProtocolContext serial_ctx{serial_eps, serial_rng, cfg, nullptr,
                             net::ExecutionPolicy::Serial()};
  const PemWindowResult serial = RunPemWindow(serial_ctx, serial_parties);

  // The same window, one forked process per agent.  Parties are built
  // inside each child (fork-copied config + rng snapshot), exactly as
  // RunSimulation's children rebuild their window state.
  crypto::DeterministicRng rng(kSeed);
  net::ProcessTransport::ChildMain child_main =
      [&cfg, &rng](net::AgentId self, net::Transport& wire,
                   net::ControlChannel& ctl) -> int {
    std::vector<net::Endpoint> eps = wire.endpoints();
    ProtocolContext ctx{eps, rng, cfg, nullptr,
                        net::ExecutionPolicy::Process()};
    std::vector<Party> parties;
    for (size_t i = 0; i < kMarket.size(); ++i) {
      parties.emplace_back(static_cast<net::AgentId>(i), kMarket[i].params);
    }
    AgentDriver::Callbacks callbacks;
    callbacks.begin_window = [&](int window) {
      PEM_CHECK(window == 0, "test schedules exactly one window");
      // Same RNG draw order as the serial reference's MakeParties.
      for (size_t i = 0; i < kMarket.size(); ++i) {
        parties[i].BeginWindow(kMarket[i].state, cfg.nonce_bound, rng);
      }
    };
    AgentDriver driver(self, ctx, parties, callbacks);
    return driver.Serve(ctl) == 1 ? 0 : 1;
  };
  net::ProcessTransport transport(static_cast<int>(kMarket.size()),
                                  child_main);
  const WindowRecord report = RunForkedWindow(transport, 0);
  transport.Shutdown();

  // Every visited field, bit for bit: type, price, trades, bytes, rng
  // cursor, audit.
  EXPECT_EQ(DiffRecords(report, serial.record),
            std::vector<std::string_view>{});
  // The report's bytes were cross-checked against the router's literal
  // socket ledger inside RunForkedWindow; check the totals too.
  EXPECT_EQ(transport.total_bytes(), serial.record.bus_bytes);
  EXPECT_FALSE(serial.record.trades.empty());
}

// --- malformed reports ------------------------------------------------
//
// A child's report is untrusted input to the parent.  Whatever bytes a
// child sends, the parent must come back with a structured
// kForgedReport fault naming that child — never an abort, never an
// allocation sized by a forged count — and within the watchdog.

// A valid report for window 0 with no traffic; it carries a trade and
// an audit fault, so every count and enum of the record is on the wire.
AgentReport ValidReport() {
  AgentReport report;
  report.record.trades = {{0, 1, 0.5, 0.15}};
  report.record.audit.audited = true;
  report.record.audit.faults = {
      {1, CheatClass::kCommitmentMismatch, 0, "opening"}};
  return report;
}

// The valid encoding with `bytes` written over it where `touch` first
// changes the encoding, i.e. where the touched field starts.  Nothing
// here knows the layout: Visit order decides it.
std::vector<uint8_t> Overwrite(void (*touch)(WindowRecord&),
                               std::vector<uint8_t> bytes) {
  std::vector<uint8_t> out = EncodeAgentReport(ValidReport());
  AgentReport touched = ValidReport();
  touch(touched.record);
  const std::vector<uint8_t> other = EncodeAgentReport(touched);
  const size_t at = static_cast<size_t>(
      std::mismatch(out.begin(), out.end(), other.begin(), other.end()).first -
      out.begin());
  PEM_CHECK(at + bytes.size() <= out.size(), "test: overwrite past the end");
  std::copy(bytes.begin(), bytes.end(), out.begin() + static_cast<long>(at));
  return out;
}

const std::vector<uint8_t> kHugeCount = {0xff, 0xff, 0xff, 0x7f};  // 2^31-1

struct Malformation {
  const char* name;
  std::vector<uint8_t> (*payload)();
  uint32_t tag = net::kCtlRepWindow;
};

const Malformation kMalformations[] = {
    {"unknown_tag", [] { return EncodeAgentReport(ValidReport()); }, 77},
    {"truncated",
     [] {
       std::vector<uint8_t> b = EncodeAgentReport(ValidReport());
       b.resize(b.size() - 3);
       return b;
     }},
    {"trailing_byte",
     [] {
       std::vector<uint8_t> b = EncodeAgentReport(ValidReport());
       b.push_back(0);
       return b;
     }},
    {"empty", [] { return std::vector<uint8_t>{}; }},
    {"huge_trade_count",
     [] {
       return Overwrite([](WindowRecord& r) { r.trades.push_back({}); },
                        kHugeCount);
     }},
    {"huge_fault_count",
     [] {
       return Overwrite(
           [](WindowRecord& r) { r.audit.faults.push_back({}); }, kHugeCount);
     }},
    {"huge_detail_length",
     [] {
       return Overwrite(
           [](WindowRecord& r) { r.audit.faults[0].detail += "!"; },
           kHugeCount);
     }},
    {"bad_market_type",
     [] {
       return Overwrite(
           [](WindowRecord& r) { r.type = market::MarketType::kGeneral; },
           {0x7f});
     }},
    {"bad_cheat_class",
     [] {
       return Overwrite(
           [](WindowRecord& r) {
             r.audit.faults[0].cheat = CheatClass::kForgedReport;
           },
           {0xff});
     }},
    {"bad_bool",
     [] {
       return Overwrite([](WindowRecord& r) { r.audit.audited = false; },
                        {2});
     }},
};

class MalformedReport
    : public ::testing::TestWithParam<std::tuple<net::TransportKind, size_t>> {
};

TEST_P(MalformedReport, ParentRaisesForgedReportNamingSender) {
  const auto [kind, which] = GetParam();
  const Malformation& m = kMalformations[which];
  const std::vector<uint8_t> bad = m.payload();
  const std::vector<uint8_t> good = EncodeAgentReport(ValidReport());
  ASSERT_TRUE(DecodeAgentReport(good).has_value());
  if (m.tag == net::kCtlRepWindow) {
    EXPECT_FALSE(DecodeAgentReport(bad).has_value());
  }

  // Hand-written children: agent 0 answers the run command with the
  // valid report, agent 1 with the malformed one; both then idle until
  // the supervisor tears them down.
  net::AgentSupervisor::ChildMain child_main =
      [&m, &bad, &good](net::AgentId self, net::Transport&,
                        net::ControlChannel& ctl) -> int {
    (void)ctl.Read(30'000);
    if (self == 1) {
      ctl.Write(m.tag, bad);
    } else {
      ctl.Write(net::kCtlRepWindow, good);
    }
    (void)ctl.Read(30'000);
    return 0;
  };
  constexpr int kWatchdogMs = 10'000;
  std::unique_ptr<net::AgentSupervisor> owner;
  if (kind == net::TransportKind::kShm) {
    owner = std::make_unique<net::ShmTransport>(
        2, child_main, net::ShmTransport::Options{kWatchdogMs, 1u << 16});
  } else {
    net::ProcessTransport::Options opts;
    opts.watchdog_ms = kWatchdogMs;
    owner = std::make_unique<net::ProcessTransport>(2, child_main, opts);
  }
  const Stopwatch timer;
  try {
    (void)RunForkedWindow(*owner, 0);
    ADD_FAILURE() << "malformed report was merged";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.fault().cheater, 1);
    EXPECT_EQ(e.fault().cheat, CheatClass::kForgedReport);
    EXPECT_EQ(e.fault().window, 0);
  }
  EXPECT_LT(timer.ElapsedSeconds() * 1000.0, kWatchdogMs);
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, MalformedReport,
    ::testing::Combine(::testing::Values(net::TransportKind::kProcess,
                                         net::TransportKind::kShm),
                       ::testing::Range<size_t>(0, std::size(kMalformations))),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == net::TransportKind::kShm
                             ? "shm_"
                             : "process_") +
             kMalformations[std::get<1>(info.param)].name;
    });

}  // namespace
}  // namespace pem::protocol
