#include "protocol/agent_driver.h"

#include <limits>
#include <string>
#include <string_view>

#include "net/agent_supervisor.h"
#include "net/serialize.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace pem::protocol {
namespace {

void WriteStats(net::ByteWriter& w, const net::TrafficStats& s) {
  w.U64(s.bytes_sent);
  w.U64(s.bytes_received);
  w.U64(s.messages_sent);
  w.U64(s.messages_received);
}

bool ReadStats(net::ByteReader& r, net::TrafficStats& s) {
  for (uint64_t* counter : {&s.bytes_sent, &s.bytes_received,
                            &s.messages_sent, &s.messages_received}) {
    const std::optional<uint64_t> v = r.TryU64();
    if (!v) return false;
    *counter = *v;
  }
  return true;
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

}  // namespace

std::vector<uint8_t> EncodeAgentReport(const AgentReport& report) {
  net::ByteWriter w;
  EncodeRecord(report.record, w);
  WriteStats(w, report.self_stats);
  return w.Take();
}

std::optional<AgentReport> DecodeAgentReport(std::span<const uint8_t> bytes) {
  net::ByteReader r(bytes);
  std::optional<WindowRecord> record = DecodeRecord(r);
  AgentReport report;
  if (!record || !ReadStats(r, report.self_stats) || !r.AtEnd()) {
    return std::nullopt;
  }
  report.record = std::move(*record);
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

AgentReport AgentDriver::RunWindow(int window) {
  callbacks_.begin_window(window);
  const net::TrafficStats before = ctx_.ep(self_).stats();
  AgentReport report{RunPemWindow(ctx_, parties_, window).record, {}};
  report.self_stats = Delta(ctx_.ep(self_).stats(), before);
  // Driver-level cheats: only the cheater's own process lies — its
  // peers report honestly — so the parent's cross-checks in
  // RunForkedWindow are what must catch them.
  if (ctx_.config.cheat.ActiveFor(self_, window)) {
    if (ctx_.config.cheat.cheat == CheatClass::kForgedReport) {
      // Forged attested traffic vs the router's wire bytes.
      report.self_stats.bytes_sent += 7;
    } else if (ctx_.config.cheat.cheat == CheatClass::kStaleReport) {
      // Replays the previous window's id: the report no longer answers
      // the command it follows, which the parent's echo check rejects.
      report.record.window = window - 1;
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
    ctl.Write(net::kCtlRepWindow, EncodeAgentReport(RunWindow(window)));
    if (callbacks_.after_window) callbacks_.after_window(window);
    ++windows_run;
  }
}

WindowRecord RunForkedWindow(net::AgentSupervisor& agents, int window) {
  const int n = agents.num_agents();
  std::vector<net::TrafficStats> stats_before;
  stats_before.reserve(static_cast<size_t>(n));
  for (net::AgentId a = 0; a < n; ++a) stats_before.push_back(agents.stats(a));
  const Stopwatch timer;
  net::ByteWriter cmd;
  cmd.U32(static_cast<uint32_t>(window));
  agents.CommandAll(net::kCtlCmdRun, cmd.Take());

  WindowRecord record;  // agent 0's, which every other agent must match
  std::vector<net::TrafficStats> attested(static_cast<size_t>(n));
  for (net::AgentId a = 0; a < n; ++a) {
    const net::ControlRecord rec = agents.ReadRecord(a);
    // (a) A child's record is untrusted input: one that is not a
    // decodable report is a forgery by its sender, never a parent
    // abort.
    std::optional<AgentReport> report;
    if (rec.tag == net::kCtlRepWindow) {
      report = DecodeAgentReport(rec.payload);
    }
    if (!report) {
      throw ProtocolError(ProtocolFault{
          a, CheatClass::kForgedReport, window,
          "malformed window report (tag " + std::to_string(rec.tag) + ", " +
              std::to_string(rec.payload.size()) + " bytes)"});
    }
    // (b) The echo check: a report that names any window other than
    // the commanded one is stale and must never be merged.  An active
    // deviation, surfaced as a structured fault naming the agent rather
    // than an abort.
    if (report->record.window != window) {
      throw ProtocolError(ProtocolFault{
          a, CheatClass::kStaleReport, window,
          "report echoes window " + std::to_string(report->record.window) +
              ", parent commanded window " + std::to_string(window)});
    }
    // (c) Every independent process derived the same public outcome
    // (including the rng cursor).  A divergent child is lying about
    // (or wrong about) the window.
    if (a == 0) record = report->record;
    const std::vector<std::string_view> diff =
        DiffRecords(record, report->record);
    if (!diff.empty()) {
      throw ProtocolError(ProtocolFault{
          a, CheatClass::kForgedReport, window,
          "window report diverges from agent 0's in " +
              std::string(diff.front())});
    }
    attested[static_cast<size_t>(a)] = report->self_stats;
  }
  // Parent-side completion stamp: dispatch to the window's last report.
  record.runtime_seconds = timer.ElapsedSeconds();
  // Every child has reported, so every frame is consumed.  Relay-routed
  // backends account a frame before delivering it, so their ledgers
  // are already complete; the shm backend's accounting tap trails
  // delivery and must be drained to the write cursors before the
  // cross-checks below read the ledger.
  agents.SyncLedger();
  // (d) Canonical accounting == literal socket traffic: a child whose
  // attested delta disagrees with the bytes the router actually moved
  // for it forged a report.
  uint64_t wire_total = 0;
  for (net::AgentId a = 0; a < n; ++a) {
    const net::TrafficStats wire =
        Delta(agents.stats(a), stats_before[static_cast<size_t>(a)]);
    const net::TrafficStats& claimed = attested[static_cast<size_t>(a)];
    if (!(wire == claimed)) {
      throw ProtocolError(ProtocolFault{
          a, CheatClass::kForgedReport, -1,
          "attested traffic (sent " + std::to_string(claimed.bytes_sent) +
              ") != router wire bytes (sent " +
              std::to_string(wire.bytes_sent) + ")"});
    }
    wire_total += wire.bytes_sent;
  }
  if (wire_total != record.bus_bytes) {
    throw ProtocolError(ProtocolFault{
        -1, CheatClass::kForgedReport, -1,
        "window wire total " + std::to_string(wire_total) +
            " != canonical ledger " + std::to_string(record.bus_bytes)});
  }
  return record;
}

}  // namespace pem::protocol
