// One trading window's public outcome, declared once.
//
// What every participant derives by a window's last step: the market
// case, price p*, coalition totals, trades, canonical bytes (Fig. 5,
// Table I), rng stream position and §VI audit verdict.  The in-process
// engine, every forked child and the plaintext oracle fill this struct;
// the control-channel codec, the children's bitwise cross-check and the
// parity diff all walk Visit(), so a field added here is encoded,
// cross-checked and diffed with no further edit.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "market/clearing.h"
#include "net/serialize.h"
#include "protocol/audit.h"
#include "protocol/distribution.h"

namespace pem::protocol {

struct WindowRecord {
  int window = 0;
  market::MarketType type = market::MarketType::kNoMarket;
  double price = 0.0;  // dollars/kWh
  double supply_total = 0.0;
  double demand_total = 0.0;
  int num_sellers = 0;
  int num_buyers = 0;
  double buyer_cost_pem = 0.0;        // Γ: the buyers' market + grid bill
  double grid_interaction_pem = 0.0;  // kWh drawn from + fed to the grid
  std::vector<Trade> trades;
  uint64_t bus_bytes = 0;  // canonical ledger delta of the window
  // crypto::Rng::Cursor() after the window's last protocol draw (0 for
  // the plaintext engine and non-deterministic rngs): every engine,
  // backend and window schedule must agree on it bit for bit.
  uint64_t rng_cursor = 0;
  // Whether the window was audited, by whom, and every detected cheat
  // (the cheaters were excluded before the market ran).
  AuditOutcome audit;

  // Wall clock charged to the window; not part of the outcome, so
  // Visit skips it.  In-process it is the window's own protocol time;
  // on a forked backend it spans the window's dispatch to its last
  // report in the parent.
  double runtime_seconds = 0.0;

  // Calls fn(name, field) for every public field, in wire order.
  template <typename Fn>
  void Visit(Fn&& fn) { Fields(*this, fn); }
  template <typename Fn>
  void Visit(Fn&& fn) const { Fields(*this, fn); }

 private:
  template <typename Self, typename Fn>
  static void Fields(Self& r, Fn& fn) {
    fn("window", r.window);
    fn("type", r.type);
    fn("price", r.price);
    fn("supply_total", r.supply_total);
    fn("demand_total", r.demand_total);
    fn("num_sellers", r.num_sellers);
    fn("num_buyers", r.num_buyers);
    fn("buyer_cost_pem", r.buyer_cost_pem);
    fn("grid_interaction_pem", r.grid_interaction_pem);
    fn("trades", r.trades);
    fn("bus_bytes", r.bus_bytes);
    fn("rng_cursor", r.rng_cursor);
    fn("audit", r.audit);
  }
};

// Appends the record's visited fields to `w`.
void EncodeRecord(const WindowRecord& record, net::ByteWriter& w);

// Reads one record off `r` without aborting: nullopt on truncation, a
// count larger than the bytes left, or an out-of-range enum or bool.
// The payload is untrusted (a child's report), so nothing here may
// abort the reader or allocate beyond the bytes it was given.
std::optional<WindowRecord> DecodeRecord(net::ByteReader& r);

// The names of the visited fields on which `a` and `b` differ, bit for
// bit (two NaNs agree only if their bits do); empty iff the records
// state the same outcome.  runtime_seconds is never compared.
std::vector<std::string_view> DiffRecords(const WindowRecord& a,
                                          const WindowRecord& b);

}  // namespace pem::protocol
