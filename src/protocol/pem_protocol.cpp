#include "protocol/pem_protocol.h"

#include "protocol/market_eval.h"
#include "protocol/pricing.h"
#include "util/stopwatch.h"

namespace pem::protocol {

PemWindowResult RunPemWindow(ProtocolContext& ctx, std::span<Party> parties,
                             int window) {
  const Stopwatch timer;
  ctx.window = window;
  // Window traffic is measured as the delta of per-endpoint counters
  // (every delivered copy is charged once on its sender, so the sum of
  // bytes_sent equals the transport's total) — the driver never needs
  // the whole transport, and counters accumulate across windows.
  const uint64_t bytes_before = net::TotalBytesSent(ctx.endpoints);

  PemWindowResult result;
  WindowRecord& rec = result.record;
  rec.window = window;
  const size_t n = parties.size();
  result.market_purchase.assign(n, 0.0);
  result.market_sale.assign(n, 0.0);
  result.money_paid.assign(n, 0.0);
  result.money_received.assign(n, 0.0);

  // §VI audit round: runs before the market, so a detected cheater is
  // excluded and the window completes over the honest survivors.
  rec.audit = RunAuditRound(ctx, parties);

  // Protocol 1, line 4: coalition formation.  Formed AFTER the audit —
  // an excluded cheater classifies kOffMarket, so the coalitions (and
  // every ring derived from them) re-form around the survivors.
  const Coalitions coalitions = FormCoalitions(parties);

  const market::MarketParams& mp = ctx.config.market;
  if (coalitions.sellers.empty() || coalitions.buyers.empty()) {
    // Degenerate market: everyone trades with the main grid only.
    rec.type = market::MarketType::kNoMarket;
    rec.price = mp.retail_price;
  } else {
    // Line 5: Private Market Evaluation.
    const MarketEvalResult eval =
        RunPrivateMarketEvaluation(ctx, parties, coalitions);
    if (eval.general_market) {
      // Lines 6-7: Private Pricing.
      rec.type = market::MarketType::kGeneral;
      rec.price = RunPrivatePricing(ctx, parties, coalitions).price;
    } else {
      // Line 9: extreme market trades at the floor.
      rec.type = market::MarketType::kExtreme;
      rec.price = mp.price_floor;
    }
    // Line 10: Private Distribution.
    DistributionResult dist = RunPrivateDistribution(
        ctx, parties, coalitions, eval.general_market, rec.price);
    rec.trades = std::move(dist.trades);
  }

  // Settle: apply trades, then clear each agent's residual with the
  // main grid (public per-agent bookkeeping, not part of the MPC).
  for (const Trade& t : rec.trades) {
    result.market_sale[t.seller_index] += t.energy_kwh;
    result.market_purchase[t.buyer_index] += t.energy_kwh;
    result.money_received[t.seller_index] += t.payment;
    result.money_paid[t.buyer_index] += t.payment;
  }
  for (size_t i = 0; i < n; ++i) {
    const Party& p = parties[i];
    switch (p.role()) {
      case grid::Role::kSeller: {
        ++rec.num_sellers;
        rec.supply_total += p.net_kwh();
        const double leftover = p.net_kwh() - result.market_sale[i];
        result.grid_export_kwh += leftover;
        result.money_received[i] += mp.buyback_price * leftover;
        break;
      }
      case grid::Role::kBuyer: {
        ++rec.num_buyers;
        const double demand = -p.net_kwh();
        rec.demand_total += demand;
        const double residual = demand - result.market_purchase[i];
        result.grid_import_kwh += residual;
        result.money_paid[i] += mp.retail_price * residual;
        rec.buyer_cost_pem += result.money_paid[i];
        break;
      }
      case grid::Role::kOffMarket:
        break;
    }
  }

  rec.grid_interaction_pem = result.grid_import_kwh + result.grid_export_kwh;
  rec.runtime_seconds = timer.ElapsedSeconds();
  rec.bus_bytes = net::TotalBytesSent(ctx.endpoints) - bytes_before;
  // Measured before the idle-time pool refill (which draws too), so
  // every engine and schedule probes the identical stream position.
  rec.rng_cursor = ctx.rng.Cursor();
  return result;
}

}  // namespace pem::protocol
