// Ablation (see EXPERIMENTS.md): ring vs. star aggregation for the Paillier
// sums of Protocols 2-3.
//
// Ring (the paper's choice): each agent multiplies its ciphertext into
// a running product and forwards it — n messages of one ciphertext,
// but strictly sequential.  Star: every agent sends its ciphertext to
// the aggregator who multiplies locally — same message count, but the
// aggregator receives n ciphertexts (hotspot) while the sends could
// parallelize.  This bench quantifies wall time and the per-agent
// bandwidth skew.
#include <cstdio>
#include <span>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "net/bus.h"
#include "net/serialize.h"
#include "util/stopwatch.h"

int main() {
  using namespace pem;
  using namespace pem::crypto;

  std::printf("=== Ablation: ring vs star aggregation ===\n");
  std::printf("%6s %9s %12s %12s %18s %18s\n", "n", "key", "ring (ms)",
              "star (ms)", "ring max B/agent", "star max B/agent");

  DeterministicRng rng(1);
  for (int key_bits : {512, 1024}) {
    const PaillierKeyPair kp = GeneratePaillierKeyPair(key_bits, rng);
    for (int n : {50, 100, 200}) {
      const size_t ct_bytes = kp.pub.ciphertext_bytes();

      // --- ring ---
      net::MessageBus ring_bus(n);
      std::vector<net::Endpoint> ring_agents = ring_bus.endpoints();
      Stopwatch ring_timer;
      PaillierCiphertext acc = kp.pub.EncryptSigned(0, rng);
      for (int i = 1; i < n; ++i) {
        const PaillierCiphertext mine = kp.pub.EncryptSigned(i, rng);
        acc = kp.pub.Add(acc, mine);
        net::ByteWriter w;
        w.Bytes(acc.value.ToBytesPadded(ct_bytes));
        ring_agents[static_cast<size_t>(i - 1)].Send(
            static_cast<net::AgentId>(i), 1, w.Take());
        (void)ring_agents[static_cast<size_t>(i)].Receive();
      }
      const double ring_ms = ring_timer.ElapsedMillis();

      // --- star ---
      net::MessageBus star_bus(n);
      std::vector<net::Endpoint> star_agents = star_bus.endpoints();
      Stopwatch star_timer;
      PaillierCiphertext star_acc = kp.pub.EncryptSigned(0, rng);
      for (int i = 1; i < n; ++i) {
        const PaillierCiphertext mine = kp.pub.EncryptSigned(i, rng);
        net::ByteWriter w;
        w.Bytes(mine.value.ToBytesPadded(ct_bytes));
        star_agents[static_cast<size_t>(i)].Send(0, 1, w.Take());
        (void)star_agents[0].Receive();
        star_acc = kp.pub.Add(star_acc, mine);
      }
      const double star_ms = star_timer.ElapsedMillis();

      auto max_bytes = [&](std::span<const net::Endpoint> agents) {
        uint64_t mx = 0;
        for (const net::Endpoint& ep : agents) {
          const net::TrafficStats s = ep.stats();
          mx = std::max(mx, s.bytes_sent + s.bytes_received);
        }
        return mx;
      };
      std::printf("%6d %8db %12.1f %12.1f %18llu %18llu\n", n, key_bits,
                  ring_ms, star_ms,
                  static_cast<unsigned long long>(max_bytes(ring_agents)),
                  static_cast<unsigned long long>(max_bytes(star_agents)));
    }
  }
  std::printf(
      "\ntakeaway: equal total messages; the star concentrates ~n ciphertexts "
      "on the aggregator (hotspot), the ring spreads 2 per agent — the "
      "paper's ring choice trades latency for per-agent fairness\n");
  return 0;
}
