// Raw transport throughput: frames/sec and MB/s per backend, frame
// size, and community size.
//
// The shm transport exists for exactly one reason — co-located agents
// should not pay two kernel copies plus a router hop per frame — and
// this bench is where that claim gets a number.  One sender streams
// frames round-robin to every other agent while the receivers consume
// concurrently (the forked backends really overlap; the in-process
// bus runs the same script on one thread), so the figure is streaming
// throughput under each backend's own backpressure, not round-trip
// latency.
//
// Output: a human table plus one JSON line per configuration (for
// scripted comparisons).  See EXPERIMENTS.md "Co-located zero-copy
// deployment" for the measured numbers and the single-core CI caveat:
// on a 1-vCPU container the forked backends serialize onto one core
// and the shm advantage shrinks to the syscall savings; the >= 2x gap
// over socketpairs shows on multicore hosts.
//
// Flags:
//   --frames=N   frame count for the smallest size (default 4096;
//                scaled down as the frame size grows so every config
//                moves a comparable byte volume)
//   --agents=CSV community sizes to sweep (default "2,4")
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/process_transport.h"
#include "net/serialize.h"
#include "net/shm_transport.h"
#include "net/transport.h"

namespace pem {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  net::TransportKind kind = net::TransportKind::kSerialBus;
  int agents = 2;
  size_t frame_bytes = 64;  // payload size per frame
  int frames = 0;
};

struct RunStats {
  double seconds = 0.0;
  uint64_t wire_bytes = 0;  // FramedSize-accounted bytes moved
};

std::vector<uint8_t> BenchPayload(size_t len) {
  std::vector<uint8_t> p(len);
  for (size_t i = 0; i < len; ++i) p[i] = static_cast<uint8_t>(i * 17 + 3);
  return p;
}

// The deterministic streaming script both deployment models run: agent
// 0 sends `frames` frames round-robin to agents 1..n-1, each receiver
// consumes its share.  The in-process bus executes it on one thread;
// forked backends run it as the shared ChildMain, where each process
// performs only its own agent's real wire operations.
void StreamScript(std::vector<net::Endpoint>& eps, int frames,
                  const std::vector<uint8_t>& payload) {
  const int n = static_cast<int>(eps.size());
  for (int i = 0; i < frames; ++i) {
    const net::AgentId to = 1 + (i % (n - 1));
    eps[0].Send(to, /*type=*/100, payload);
    (void)eps[static_cast<size_t>(to)].Receive();
  }
}

RunStats RunInProcess(const Config& c) {
  std::unique_ptr<net::Transport> bus =
      net::MakeTransport(c.kind, c.agents);
  std::vector<net::Endpoint> eps = bus->endpoints();
  const std::vector<uint8_t> payload = BenchPayload(c.frame_bytes);
  const auto start = Clock::now();
  StreamScript(eps, c.frames, payload);
  const double secs = std::chrono::duration<double>(Clock::now() - start)
                          .count();
  return RunStats{secs, bus->total_bytes()};
}

RunStats RunForked(const Config& c) {
  net::AgentSupervisor::ChildMain child_main =
      [frames = c.frames, frame_bytes = c.frame_bytes](
          net::AgentId, net::Transport& wire,
          net::ControlChannel& ctl) -> int {
    const std::vector<uint8_t> payload = BenchPayload(frame_bytes);
    for (;;) {
      const net::ControlRecord cmd = ctl.Read(/*timeout_ms=*/120'000);
      if (cmd.tag == net::kCtlCmdShutdown) {
        ctl.Write(net::kCtlRepDone);
        return 0;
      }
      std::vector<net::Endpoint> eps = wire.endpoints();
      StreamScript(eps, frames, payload);
      ctl.Write(net::kCtlRepWindow);
    }
  };

  std::unique_ptr<net::AgentSupervisor> owner;
  switch (c.kind) {
    case net::TransportKind::kProcess:
      owner = std::make_unique<net::ProcessTransport>(c.agents, child_main);
      break;
    case net::TransportKind::kShm:
      owner = std::make_unique<net::ShmTransport>(c.agents, child_main);
      break;
    default:
      std::fprintf(stderr, "not a forked backend\n");
      std::exit(2);
  }
  const auto start = Clock::now();
  owner->CommandAll(net::kCtlCmdRun);
  for (net::AgentId a = 0; a < c.agents; ++a) {
    (void)owner->ReadRecord(a);
  }
  owner->SyncLedger();
  const double secs = std::chrono::duration<double>(Clock::now() - start)
                          .count();
  const uint64_t bytes = owner->total_bytes();
  owner->Shutdown();
  return RunStats{secs, bytes};
}

bool Forked(net::TransportKind k) {
  return k == net::TransportKind::kProcess || k == net::TransportKind::kShm;
}

}  // namespace
}  // namespace pem

int main(int argc, char** argv) {
  using namespace pem;
  int base_frames = 4096;
  std::vector<int> agent_counts = {2, 4};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--frames=", 0) == 0) {
      base_frames = std::atoi(arg.c_str() + 9);
      if (base_frames < 1) {
        std::fprintf(stderr, "--frames must be >= 1\n");
        return 2;
      }
    } else if (arg.rfind("--agents=", 0) == 0) {
      agent_counts.clear();
      std::string csv = arg.substr(9);
      for (size_t pos = 0; pos < csv.size();) {
        const size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
        const int n = std::atoi(tok.c_str());
        if (n < 2) {
          std::fprintf(stderr, "--agents entries must be >= 2\n");
          return 2;
        }
        agent_counts.push_back(n);
        pos = comma == std::string::npos ? csv.size() : comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const std::vector<std::pair<net::TransportKind, const char*>> kBackends = {
      {net::TransportKind::kSerialBus, "serial"},
      {net::TransportKind::kProcess, "process"},
      {net::TransportKind::kShm, "shm"},
  };
  const std::vector<size_t> kFrameSizes = {64, 4096, 64 * 1024};

  std::printf("=== micro_transport — frames/sec and MB/s per backend ===\n");
  std::printf("%-12s %8s %7s %8s %10s %12s %10s\n", "backend", "frame_B",
              "agents", "frames", "seconds", "frames/s", "MB/s");
  for (const int agents : agent_counts) {
    for (const size_t frame_bytes : kFrameSizes) {
      for (const auto& [kind, name] : kBackends) {
        Config c;
        c.kind = kind;
        c.agents = agents;
        c.frame_bytes = frame_bytes;
        // Comparable byte volume per config: scale the frame count
        // down as frames grow (floor so even 64 KiB moves real data).
        c.frames = static_cast<int>(
            std::max<size_t>(64, static_cast<size_t>(base_frames) * 64 /
                                     std::max<size_t>(64, frame_bytes)));
        const RunStats r = Forked(kind) ? RunForked(c) : RunInProcess(c);
        const double fps = static_cast<double>(c.frames) / r.seconds;
        const double mbps = static_cast<double>(r.wire_bytes) /
                            (1024.0 * 1024.0) / r.seconds;
        std::printf("%-12s %8zu %7d %8d %10.4f %12.0f %10.2f\n", name,
                    frame_bytes, agents, c.frames, r.seconds, fps, mbps);
        std::printf(
            "{\"bench\":\"micro_transport\",\"backend\":\"%s\","
            "\"frame_bytes\":%zu,\"agents\":%d,\"frames\":%d,"
            "\"seconds\":%.6f,\"frames_per_sec\":%.1f,\"mb_per_sec\":%.3f,"
            "\"wire_bytes\":%llu}\n",
            name, frame_bytes, agents, c.frames, r.seconds, fps, mbps,
            static_cast<unsigned long long>(r.wire_bytes));
      }
    }
  }
  return 0;
}
