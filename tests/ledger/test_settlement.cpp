#include "ledger/settlement.h"

#include <gtest/gtest.h>

namespace pem::ledger {
namespace {

protocol::WindowRecord MakeResult(double price,
                                     std::vector<protocol::Trade> trades) {
  protocol::WindowRecord r;
  r.type = market::MarketType::kGeneral;
  r.price = price;
  for (const protocol::Trade& t : trades) {
    r.supply_total += t.energy_kwh;
    r.demand_total += t.energy_kwh * 2;  // demand exceeds supply
  }
  r.trades = std::move(trades);
  return r;
}

protocol::Trade Trade(size_t seller, size_t buyer, double kwh, double pay) {
  return protocol::Trade{seller, buyer, kwh, pay};
}

TEST(Settlement, AcceptsConsistentWindow) {
  Ledger chain;
  SettlementContract contract(chain);
  const auto result =
      MakeResult(1.0, {Trade(0, 1, 0.5, 0.5), Trade(0, 2, 0.25, 0.25)});
  const SettlementReport report = contract.SettleWindow(10, result);
  EXPECT_TRUE(report.accepted);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.transactions_recorded, 2u);
  EXPECT_EQ(chain.TotalTransactions(), 2u);
  EXPECT_TRUE(chain.Validate().empty());
  EXPECT_EQ(report.block_hash, chain.tip().Hash());
}

TEST(Settlement, RecordsFixedPointQuantities) {
  Ledger chain;
  SettlementContract contract(chain);
  (void)contract.SettleWindow(3, MakeResult(0.9, {Trade(0, 1, 0.123456,
                                                        0.9 * 0.123456)}));
  const std::vector<Transaction> txs = chain.TransactionsInWindow(3);
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_EQ(txs[0].energy_micro_kwh, 123'456);
  EXPECT_EQ(txs[0].payment_micro_usd, 111'110);  // round(0.1111104e6)
}

TEST(Settlement, RejectsWrongPayment) {
  Ledger chain;
  SettlementContract contract(chain);
  const auto result = MakeResult(1.0, {Trade(0, 1, 0.5, 0.6)});  // overpaid
  const SettlementReport report = contract.SettleWindow(1, result);
  EXPECT_FALSE(report.accepted);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("payment"), std::string::npos);
  EXPECT_EQ(chain.TotalTransactions(), 0u);  // chain untouched
}

TEST(Settlement, RejectsNegativeEnergy) {
  Ledger chain;
  SettlementContract contract(chain);
  const auto result = MakeResult(1.0, {Trade(0, 1, -0.5, -0.5)});
  const SettlementReport report = contract.SettleWindow(1, result);
  EXPECT_FALSE(report.accepted);
}

TEST(Settlement, RejectsSelfTrade) {
  Ledger chain;
  SettlementContract contract(chain);
  const auto result = MakeResult(1.0, {Trade(1, 1, 0.5, 0.5)});
  EXPECT_FALSE(contract.SettleWindow(1, result).accepted);
}

TEST(Settlement, RejectsOverAllocation) {
  Ledger chain;
  SettlementContract contract(chain);
  protocol::WindowRecord r = MakeResult(1.0, {Trade(0, 1, 0.5, 0.5)});
  r.supply_total = 0.2;  // claims less supply than was traded
  r.demand_total = 0.4;
  EXPECT_FALSE(contract.SettleWindow(1, r).accepted);
}

TEST(Settlement, EmptyWindowMakesEmptyBlock) {
  Ledger chain;
  SettlementContract contract(chain);
  const SettlementReport report =
      contract.SettleWindow(5, MakeResult(1.0, {}));
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.transactions_recorded, 0u);
  EXPECT_EQ(chain.block_count(), 2u);
}

TEST(Settlement, MultiWindowChainStaysValid) {
  Ledger chain;
  SettlementContract contract(chain);
  for (int w = 0; w < 20; ++w) {
    const double price = 0.9 + 0.01 * w;
    const double kwh = 0.1 + 0.01 * w;
    EXPECT_TRUE(contract
                    .SettleWindow(w, MakeResult(price,
                                                {Trade(0, 1, kwh,
                                                       price * kwh)}))
                    .accepted);
  }
  EXPECT_EQ(chain.block_count(), 21u);
  EXPECT_TRUE(chain.Validate().empty());
  // Buyer 1 paid everything seller 0 received.
  EXPECT_EQ(chain.BalanceOf(0), -chain.BalanceOf(1));
}

}  // namespace
}  // namespace pem::ledger
