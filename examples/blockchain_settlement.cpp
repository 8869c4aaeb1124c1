// Blockchain settlement (paper §VI, "Blockchain Deployment"): record
// every PEM trade on a hash-chained ledger through the settlement
// smart contract, then demonstrate tamper detection.
//
// Build & run:  ./build/examples/blockchain_settlement
#include <cstdio>

#include "core/simulation.h"
#include "crypto/rng.h"
#include "ledger/settlement.h"
#include "net/bus.h"

int main() {
  using namespace pem;

  // A morning of trading for a 40-home community, real protocols.
  grid::TraceConfig trace_cfg;
  trace_cfg.num_homes = 40;
  trace_cfg.windows_per_day = 720;
  const grid::CommunityTrace trace = grid::GenerateCommunityTrace(trace_cfg);

  protocol::PemConfig config;
  config.key_bits = 512;  // demo speed
  crypto::SystemRng& rng = crypto::SystemRng::Instance();

  ledger::Ledger chain;
  ledger::SettlementContract contract(chain);

  net::MessageBus bus(trace.num_homes());
  std::vector<net::Endpoint> agents = bus.endpoints();
  std::vector<protocol::Party> parties;
  for (int h = 0; h < trace.num_homes(); ++h) {
    parties.emplace_back(h, trace.homes[static_cast<size_t>(h)].params);
  }
  std::vector<grid::Battery> batteries = trace.MakeBatteries();

  // Settle a midday slice of windows on-chain.
  const int first = 350, last = 357;
  for (int w = 0; w <= last; ++w) {
    std::vector<grid::WindowState> states;
    states.reserve(static_cast<size_t>(trace.num_homes()));
    for (int h = 0; h < trace.num_homes(); ++h) {
      states.push_back(trace.ResolveWindow(h, w, batteries));
    }
    if (w < first) continue;  // batteries still evolve before the slice
    for (int h = 0; h < trace.num_homes(); ++h) {
      parties[static_cast<size_t>(h)].BeginWindow(
          states[static_cast<size_t>(h)], config.nonce_bound, rng);
    }
    protocol::ProtocolContext ctx{agents, rng, config};
    const protocol::WindowRecord out =
        protocol::RunPemWindow(ctx, parties).record;
    const ledger::SettlementReport report = contract.SettleWindow(w, out);
    std::printf("window %d: price %5.1f c/kWh, %3zu trades -> block %zu %s\n",
                w, out.price * 100, out.trades.size(),
                chain.block_count() - 1,
                report.accepted ? "sealed" : "REJECTED");
  }

  std::printf("\nchain: %zu blocks, %llu transactions, audit: %s\n",
              chain.block_count(),
              static_cast<unsigned long long>(chain.TotalTransactions()),
              chain.Validate().empty() ? "VALID" : "INVALID");

  // Balances settle to zero across the coalition (closed market).
  int64_t sum = 0;
  for (int h = 0; h < trace.num_homes(); ++h) sum += chain.BalanceOf(h);
  std::printf("sum of all balances: %lld micro-USD (money conservation)\n",
              static_cast<long long>(sum));

  // A malicious rewrite of history is caught by the audit.
  if (chain.TotalTransactions() > 0) {
    for (size_t b = 1; b < chain.block_count(); ++b) {
      if (!chain.block(b).transactions.empty()) {
        chain.MutableBlockForTest(b).transactions[0].payment_micro_usd += 1;
        break;
      }
    }
    const auto issues = chain.Validate();
    std::printf("\nafter tampering with one recorded payment:\n");
    for (const auto& issue : issues) {
      std::printf("  audit: block %llu — %s\n",
                  static_cast<unsigned long long>(issue.block_index),
                  issue.what.c_str());
    }
    std::printf("tamper detection: %s\n", issues.empty() ? "FAILED" : "OK");
  }

  // A forged window (payment not matching price*energy) is refused by
  // the contract before it ever reaches the chain.
  protocol::WindowRecord forged;
  forged.type = market::MarketType::kGeneral;
  forged.price = 1.0;
  forged.supply_total = 1.0;
  forged.demand_total = 2.0;
  forged.trades.push_back(protocol::Trade{0, 1, 0.5, 0.7});  // overpriced
  const ledger::SettlementReport rejected =
      contract.SettleWindow(999, forged);
  std::printf("\nforged window accepted? %s (%s)\n",
              rejected.accepted ? "yes" : "no",
              rejected.violations.empty() ? "-"
                                          : rejected.violations[0].c_str());
  return 0;
}
