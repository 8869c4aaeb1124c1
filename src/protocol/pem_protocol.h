// Private Energy Market (Protocol 1): one full trading window.
//
// Orchestrates coalition formation, Private Market Evaluation,
// Private Pricing (general market) / floor pricing (extreme market),
// and Private Distribution, then settles each agent's residual with
// the main grid.  The output mirrors market::MarketOutcome so tests
// can assert the cryptographic path computes exactly the plaintext
// clearing result.
#pragma once

#include <span>

#include "protocol/context.h"
#include "protocol/window_record.h"

namespace pem::protocol {

// One window's public record plus the per-agent bookkeeping behind it.
struct PemWindowResult {
  WindowRecord record;

  // Per-agent settlement (indexed like the parties span).
  std::vector<double> market_purchase;
  std::vector<double> market_sale;
  std::vector<double> money_paid;
  std::vector<double> money_received;
  // record.grid_interaction_pem, split by direction.
  double grid_import_kwh = 0.0;
  double grid_export_kwh = 0.0;
};

// Runs one window.  Parties must have BeginWindow() applied for this
// window already.  Reads the per-endpoint counters around the run, so
// the record's bytes are this window's traffic only.  `window` is the
// day index of the window (drives the audit domain separation and the
// cheat plan's trigger); single-window callers may leave it 0.
PemWindowResult RunPemWindow(ProtocolContext& ctx, std::span<Party> parties,
                             int window = 0);

}  // namespace pem::protocol
