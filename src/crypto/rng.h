// Random byte sources.
//
// SystemRng wraps the OS CSPRNG (via OpenSSL RAND_bytes); only the
// examples use it.  DeterministicRng is a seeded stream and is NOT
// cryptographically secure, as its type name says on purpose.  The
// engine runs on it: RunSimulation, every forked child (which must
// replay the parent's draws), the tests and the benchmarks.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>

namespace pem::crypto {

class Rng {
 public:
  virtual ~Rng() = default;

  // Fills `out` with random bytes.
  virtual void Fill(std::span<uint8_t> out) = 0;

  // Position in the stream: total bytes drawn so far.  Meaningful (and
  // stable across processes) only for deterministic streams — the
  // parity walls compare cursors across engines, backends, and window
  // schedules to prove no draw was reordered.  Non-deterministic
  // sources report 0.  Non-destructive: probing never advances the
  // stream.
  virtual uint64_t Cursor() const { return 0; }

  // Uniform 64-bit draw.
  uint64_t NextU64();
};

// Process-wide CSPRNG.  Thread-compatible (OpenSSL handles locking).
class SystemRng final : public Rng {
 public:
  void Fill(std::span<uint8_t> out) override;

  static SystemRng& Instance();
};

// SHA-256-counter stream cipher over a 64-bit seed.  Deterministic,
// suitable for tests/benches only.
class DeterministicRng final : public Rng {
 public:
  explicit DeterministicRng(uint64_t seed);

  void Fill(std::span<uint8_t> out) override;

  // Bytes drawn since construction: full blocks consumed plus the
  // position inside the current one.
  uint64_t Cursor() const override {
    return counter_ == 0 ? 0 : (counter_ - 1) * 32 + pos_;
  }

 private:
  void Refill();

  uint8_t state_[32];
  uint8_t buf_[32];
  size_t pos_;
  uint64_t counter_;
};

}  // namespace pem::crypto
