#include "ledger/settlement.h"

#include <cmath>

#include "util/fixed_point.h"

namespace pem::ledger {

SettlementReport SettlementContract::SettleWindow(
    int32_t window, const protocol::WindowRecord& record) {
  SettlementReport report;

  // --- contract checks -------------------------------------------------
  double market_energy = 0.0;
  double market_money = 0.0;
  for (const protocol::Trade& t : record.trades) {
    if (t.energy_kwh < 0.0) {
      report.violations.push_back("negative trade energy");
    }
    if (t.payment < 0.0) {
      report.violations.push_back("negative payment");
    }
    const double expected = record.price * t.energy_kwh;
    if (std::abs(t.payment - expected) >
        tolerance_ * std::max(1.0, std::abs(expected))) {
      report.violations.push_back("payment != price * energy");
    }
    if (t.seller_index == t.buyer_index) {
      report.violations.push_back("self-trade");
    }
    market_energy += t.energy_kwh;
    market_money += t.payment;
  }
  // Conservation: the market cannot move more energy than the smaller
  // coalition side offers/demands.
  const double cap = std::min(record.supply_total, record.demand_total);
  if (market_energy > cap * (1.0 + tolerance_) + 1e-9) {
    report.violations.push_back("market energy exceeds min(supply, demand)");
  }
  if (std::abs(market_money - record.price * market_energy) >
      tolerance_ * std::max(1.0, market_money)) {
    report.violations.push_back("money flow inconsistent with price");
  }

  if (!report.violations.empty()) {
    report.accepted = false;
    return report;
  }

  // --- record -----------------------------------------------------------
  std::vector<Transaction> txs;
  txs.reserve(record.trades.size());
  for (const protocol::Trade& t : record.trades) {
    Transaction tx;
    tx.window = window;
    tx.seller = static_cast<int32_t>(t.seller_index);
    tx.buyer = static_cast<int32_t>(t.buyer_index);
    tx.energy_micro_kwh = FixedPoint::FromDouble(t.energy_kwh).raw();
    tx.payment_micro_usd = FixedPoint::FromDouble(t.payment).raw();
    txs.push_back(tx);
  }
  report.transactions_recorded = txs.size();
  report.block_hash =
      ledger_.Append(std::move(txs), static_cast<uint64_t>(window));
  report.accepted = true;
  return report;
}

}  // namespace pem::ledger
