#include "protocol/agent_driver.h"

#include <cmath>
#include <limits>
#include <string>

#include "net/agent_supervisor.h"
#include "net/serialize.h"
#include "util/error.h"

namespace pem::protocol {
namespace {

void WriteStats(net::ByteWriter& w, const net::TrafficStats& s) {
  w.U64(s.bytes_sent);
  w.U64(s.bytes_received);
  w.U64(s.messages_sent);
  w.U64(s.messages_received);
}

net::TrafficStats ReadStats(net::ByteReader& r) {
  net::TrafficStats s;
  s.bytes_sent = r.U64();
  s.bytes_received = r.U64();
  s.messages_sent = r.U64();
  s.messages_received = r.U64();
  return s;
}

net::TrafficStats Delta(const net::TrafficStats& now,
                        const net::TrafficStats& before) {
  net::TrafficStats d;
  d.bytes_sent = now.bytes_sent - before.bytes_sent;
  d.bytes_received = now.bytes_received - before.bytes_received;
  d.messages_sent = now.messages_sent - before.messages_sent;
  d.messages_received = now.messages_received - before.messages_received;
  return d;
}

bool SameDouble(double a, double b) {
  // Exact bit-level agreement is the claim: every child computed the
  // identical arithmetic from identical inputs.
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool SameReport(const WindowReport& a, const WindowReport& b) {
  if (a.audit != b.audit) return false;
  if (a.window != b.window || a.rng_cursor != b.rng_cursor) return false;
  if (a.type != b.type || !SameDouble(a.price, b.price) ||
      !SameDouble(a.supply_total, b.supply_total) ||
      !SameDouble(a.demand_total, b.demand_total) ||
      !SameDouble(a.buyer_total_cost, b.buyer_total_cost) ||
      !SameDouble(a.grid_import_kwh, b.grid_import_kwh) ||
      !SameDouble(a.grid_export_kwh, b.grid_export_kwh) ||
      a.num_sellers != b.num_sellers || a.num_buyers != b.num_buyers ||
      a.bus_bytes != b.bus_bytes || a.trades.size() != b.trades.size()) {
    return false;
  }
  for (size_t i = 0; i < a.trades.size(); ++i) {
    const Trade& x = a.trades[i];
    const Trade& y = b.trades[i];
    if (x.seller_index != y.seller_index || x.buyer_index != y.buyer_index ||
        !SameDouble(x.energy_kwh, y.energy_kwh) ||
        !SameDouble(x.payment, y.payment)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeWindowReport(const WindowReport& report) {
  net::ByteWriter w;
  w.I64(report.window);
  w.U32(static_cast<uint32_t>(report.type));
  w.F64(report.price);
  w.F64(report.supply_total);
  w.F64(report.demand_total);
  w.F64(report.buyer_total_cost);
  w.F64(report.grid_import_kwh);
  w.F64(report.grid_export_kwh);
  w.U32(static_cast<uint32_t>(report.num_sellers));
  w.U32(static_cast<uint32_t>(report.num_buyers));
  w.U32(static_cast<uint32_t>(report.trades.size()));
  for (const Trade& t : report.trades) {
    w.U64(static_cast<uint64_t>(t.seller_index));
    w.U64(static_cast<uint64_t>(t.buyer_index));
    w.F64(t.energy_kwh);
    w.F64(t.payment);
  }
  w.F64(report.runtime_seconds);
  w.U64(report.bus_bytes);
  w.U64(report.rng_cursor);
  w.U8(report.audit.audited ? 1 : 0);
  w.I64(report.audit.auditor);
  w.U32(static_cast<uint32_t>(report.audit.faults.size()));
  for (const ProtocolFault& f : report.audit.faults) {
    w.I64(f.cheater);
    w.U8(static_cast<uint8_t>(f.cheat));
    w.I64(f.window);
    w.Str(f.detail);
  }
  WriteStats(w, report.self_stats);
  return w.Take();
}

WindowReport DecodeWindowReport(std::span<const uint8_t> bytes) {
  net::ByteReader r(bytes);
  WindowReport report;
  report.window = static_cast<int>(r.I64());
  report.type = static_cast<market::MarketType>(r.U32());
  report.price = r.F64();
  report.supply_total = r.F64();
  report.demand_total = r.F64();
  report.buyer_total_cost = r.F64();
  report.grid_import_kwh = r.F64();
  report.grid_export_kwh = r.F64();
  report.num_sellers = static_cast<int>(r.U32());
  report.num_buyers = static_cast<int>(r.U32());
  const uint32_t trades = r.U32();
  report.trades.reserve(trades);
  for (uint32_t i = 0; i < trades; ++i) {
    Trade t;
    t.seller_index = static_cast<size_t>(r.U64());
    t.buyer_index = static_cast<size_t>(r.U64());
    t.energy_kwh = r.F64();
    t.payment = r.F64();
    report.trades.push_back(t);
  }
  report.runtime_seconds = r.F64();
  report.bus_bytes = r.U64();
  report.rng_cursor = r.U64();
  report.audit.audited = r.U8() != 0;
  report.audit.auditor = static_cast<net::AgentId>(r.I64());
  const uint32_t faults = r.U32();
  report.audit.faults.reserve(faults);
  for (uint32_t i = 0; i < faults; ++i) {
    ProtocolFault f;
    f.cheater = static_cast<net::AgentId>(r.I64());
    f.cheat = static_cast<CheatClass>(r.U8());
    f.window = static_cast<int>(r.I64());
    f.detail = r.Str();
    report.audit.faults.push_back(std::move(f));
  }
  report.self_stats = ReadStats(r);
  PEM_CHECK(r.AtEnd(), "window report: trailing bytes");
  return report;
}

AgentDriver::AgentDriver(net::AgentId self, ProtocolContext& ctx,
                         std::span<Party> parties, Callbacks callbacks)
    : self_(self), ctx_(ctx), parties_(parties),
      callbacks_(std::move(callbacks)) {
  PEM_CHECK(self >= 0 && self < ctx.num_agents(),
            "agent driver: self id out of range");
  PEM_CHECK(parties_.size() == static_cast<size_t>(ctx.num_agents()),
            "agent driver: parties/endpoints size mismatch");
  PEM_CHECK(callbacks_.begin_window != nullptr,
            "agent driver: begin_window callback is required");
}

WindowReport MakeWindowReport(int window, const PemWindowResult& result,
                              std::span<const Party> parties) {
  WindowReport report;
  report.window = window;
  report.type = result.type;
  report.price = result.price;
  report.supply_total = result.supply_total;
  report.demand_total = result.demand_total;
  report.buyer_total_cost = result.buyer_total_cost;
  report.grid_import_kwh = result.grid_import_kwh;
  report.grid_export_kwh = result.grid_export_kwh;
  for (const Party& p : parties) {
    if (p.role() == grid::Role::kSeller) ++report.num_sellers;
    if (p.role() == grid::Role::kBuyer) ++report.num_buyers;
  }
  report.trades = result.trades;
  report.runtime_seconds = result.runtime_seconds;
  report.bus_bytes = result.bus_bytes;
  report.rng_cursor = result.rng_cursor;
  report.audit = result.audit;
  return report;
}

WindowReport AgentDriver::RunWindow(int window) {
  callbacks_.begin_window(window);
  const net::TrafficStats before = ctx_.ep(self_).stats();
  const PemWindowResult result = RunPemWindow(ctx_, parties_, window);

  WindowReport report = MakeWindowReport(window, result, parties_);
  report.self_stats = Delta(ctx_.ep(self_).stats(), before);
  // Driver-level cheats: only the cheater's own process lies — its
  // peers report honestly — so the parent's cross-checks in
  // CollectWindowReportsBatch are what must catch them.
  if (ctx_.config.cheat.ActiveFor(self_, window)) {
    if (ctx_.config.cheat.cheat == CheatClass::kForgedReport) {
      // Forged attested traffic vs the router's wire bytes.
      report.self_stats.bytes_sent += 7;
    } else if (ctx_.config.cheat.cheat == CheatClass::kStaleReport) {
      // Replays the previous window's id: the report no longer answers
      // the command it follows, which the parent's echo check rejects.
      report.window = window - 1;
    }
  }
  return report;
}

int AgentDriver::Serve(net::ControlChannel& ctl) {
  // The parent's watchdog bounds ITS waits on us; our wait for the next
  // command is idle time with no natural upper bound (a day-long
  // simulation schedules windows as it reaches them), so wait
  // effectively forever — if the parent dies, the control read throws
  // on hangup (and PDEATHSIG reaps us outright anyway).
  constexpr int kIdleMs = std::numeric_limits<int>::max();
  int windows_run = 0;
  for (;;) {
    const net::ControlRecord cmd = ctl.Read(kIdleMs);
    if (cmd.tag == net::kCtlCmdShutdown) {
      ctl.Write(net::kCtlRepDone);
      return windows_run;
    }
    PEM_CHECK(cmd.tag == net::kCtlCmdRun,
              "agent driver: unexpected control command");
    net::ByteReader r(cmd.payload);
    const int window = static_cast<int>(r.U32());
    PEM_CHECK(r.AtEnd(), "agent driver: trailing bytes in run command");
    const WindowReport report = RunWindow(window);
    ctl.Write(net::kCtlRepWindow, EncodeWindowReport(report));
    if (callbacks_.after_window) callbacks_.after_window(window);
    ++windows_run;
  }
}

std::vector<CollectedWindow> CollectWindowReportsBatch(
    net::AgentSupervisor& transport,
    std::span<const net::TrafficStats> stats_before,
    std::span<const int> windows, const Stopwatch* since) {
  const int n = transport.num_agents();
  PEM_CHECK(stats_before.size() == static_cast<size_t>(n),
            "collect: stats snapshot size mismatch");
  PEM_CHECK(!windows.empty(), "collect: empty window batch");
  // Each child's control stream yields its reports in commanded order,
  // so window k's report is the k-th record of every agent — but the
  // agents progress through the batch independently, so the reads
  // below interleave their windows out of order in wall-clock terms.
  // The echoed window id is what proves each record really answers the
  // command the parent keys it to.
  std::vector<CollectedWindow> out;
  out.reserve(windows.size());
  // attested_sum[a]: this agent's summed per-window attested deltas,
  // for the batch-granularity wire cross-check below.
  std::vector<net::TrafficStats> attested_sum(static_cast<size_t>(n));
  uint64_t ledger_total = 0;
  for (const int w : windows) {
    std::vector<WindowReport> reports;
    reports.reserve(static_cast<size_t>(n));
    for (net::AgentId a = 0; a < n; ++a) {
      const net::ControlRecord rec = transport.ReadRecord(a);
      PEM_CHECK(rec.tag == net::kCtlRepWindow,
                "collect: child sent a non-report record");
      WindowReport report = DecodeWindowReport(rec.payload);
      // (a) The echo check: a report that names any window other than
      // the commanded one is stale (replayed, or a child that lost
      // sync) and must never be merged.  An active deviation, surfaced
      // as a structured fault naming the agent rather than an abort.
      if (report.window != w) {
        throw ProtocolError(ProtocolFault{
            a, CheatClass::kStaleReport, w,
            "report echoes window " + std::to_string(report.window) +
                ", parent commanded window " + std::to_string(w)});
      }
      reports.push_back(std::move(report));
    }
    // (b) Every independent process derived the same public outcome
    // (including the rng cursor).  A divergent child is lying about
    // (or wrong about) the window.
    for (net::AgentId a = 1; a < n; ++a) {
      if (!SameReport(reports[0], reports[static_cast<size_t>(a)])) {
        throw ProtocolError(ProtocolFault{
            a, CheatClass::kForgedReport, w,
            "window report diverges from agent 0's"});
      }
    }
    for (net::AgentId a = 0; a < n; ++a) {
      const net::TrafficStats& s = reports[static_cast<size_t>(a)].self_stats;
      net::TrafficStats& sum = attested_sum[static_cast<size_t>(a)];
      sum.bytes_sent += s.bytes_sent;
      sum.bytes_received += s.bytes_received;
      sum.messages_sent += s.messages_sent;
      sum.messages_received += s.messages_received;
    }
    ledger_total += reports[0].bus_bytes;

    CollectedWindow cw;
    cw.window = w;
    cw.report = reports[0];
    // The window is done when its slowest agent is: report the max.
    for (const WindowReport& rep : reports) {
      if (rep.runtime_seconds > cw.report.runtime_seconds) {
        cw.report.runtime_seconds = rep.runtime_seconds;
      }
    }
    // Parent-side completion stamp: dispatch of the batch to this
    // window's last report.  In-flight windows share the span.
    if (since != nullptr) cw.parent_seconds = since->ElapsedSeconds();
    out.push_back(std::move(cw));
  }
  // Every child has reported every window of the batch, so every frame
  // is consumed.  Relay-routed backends account a frame before
  // delivering it, so their ledgers are already complete; the shm
  // backend's accounting tap trails delivery and must be drained to
  // the write cursors before the cross-checks below read the ledger.
  transport.SyncLedger();
  // (c) Canonical accounting == literal socket traffic, closed over
  // the batch: a child whose summed attested deltas disagree with the
  // bytes the router actually moved for it forged a report.  (With one
  // window in flight this is exactly the per-window check.)
  uint64_t wire_total = 0;
  for (net::AgentId a = 0; a < n; ++a) {
    const net::TrafficStats wire =
        Delta(transport.stats(a), stats_before[static_cast<size_t>(a)]);
    const net::TrafficStats& attested = attested_sum[static_cast<size_t>(a)];
    if (!(wire == attested)) {
      throw ProtocolError(ProtocolFault{
          a, CheatClass::kForgedReport, -1,
          "attested traffic (sent " + std::to_string(attested.bytes_sent) +
              ") != router wire bytes (sent " +
              std::to_string(wire.bytes_sent) + ")"});
    }
    wire_total += wire.bytes_sent;
  }
  if (wire_total != ledger_total) {
    throw ProtocolError(ProtocolFault{
        -1, CheatClass::kForgedReport, -1,
        "batch wire total " + std::to_string(wire_total) +
            " != canonical ledger " + std::to_string(ledger_total)});
  }
  return out;
}

WindowReport CollectWindowReports(
    net::AgentSupervisor& transport,
    std::span<const net::TrafficStats> stats_before, int expected_window) {
  const int windows[] = {expected_window};
  return CollectWindowReportsBatch(transport, stats_before, windows)
      .front()
      .report;
}

}  // namespace pem::protocol
