// Settlement "smart contract" (§VI): turns a PEM window record into a
// validated block of transactions.
//
// The contract enforces the market rules the paper wants the
// blockchain to guarantee — every payment equals price x energy, no
// negative quantities, and the per-window conservation identities —
// then appends the block.  Rejected windows leave the chain untouched.
#pragma once

#include <string>
#include <vector>

#include "ledger/chain.h"
#include "protocol/window_record.h"

namespace pem::ledger {

struct SettlementReport {
  bool accepted = false;
  std::vector<std::string> violations;
  uint64_t transactions_recorded = 0;
  crypto::Sha256Digest block_hash{};
};

class SettlementContract {
 public:
  // Relative tolerance for the price*energy check (the protocol ships
  // doubles; the chain stores fixed-point).
  explicit SettlementContract(Ledger& ledger, double tolerance = 1e-6)
      : ledger_(ledger), tolerance_(tolerance) {}

  // Validates and records one window.  `window` is the trading-window
  // id used as the logical timestamp.
  SettlementReport SettleWindow(int32_t window,
                                const protocol::WindowRecord& record);

 private:
  Ledger& ledger_;
  double tolerance_;
};

}  // namespace pem::ledger
