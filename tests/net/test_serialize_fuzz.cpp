// Randomized round-trip tests for the wire format: arbitrary
// sequences of writes must read back exactly, independent of content.
#include <gtest/gtest.h>

#include "crypto/rng.h"
#include "net/serialize.h"

namespace pem::net {
namespace {

enum class Op : uint8_t { kU8, kU32, kU64, kI64, kF64, kBytes, kStr };

struct Written {
  Op op;
  uint64_t scalar = 0;
  double real = 0;
  std::vector<uint8_t> blob;
  std::string str;
};

class SerializeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzz, RandomSequencesRoundTrip) {
  crypto::DeterministicRng rng(GetParam());
  ByteWriter w;
  std::vector<Written> log;
  const int ops = 200;
  for (int i = 0; i < ops; ++i) {
    Written rec;
    rec.op = static_cast<Op>(rng.NextU64() % 7);
    switch (rec.op) {
      case Op::kU8:
        rec.scalar = rng.NextU64() & 0xFF;
        w.U8(static_cast<uint8_t>(rec.scalar));
        break;
      case Op::kU32:
        rec.scalar = rng.NextU64() & 0xFFFFFFFF;
        w.U32(static_cast<uint32_t>(rec.scalar));
        break;
      case Op::kU64:
        rec.scalar = rng.NextU64();
        w.U64(rec.scalar);
        break;
      case Op::kI64:
        rec.scalar = rng.NextU64();
        w.I64(static_cast<int64_t>(rec.scalar));
        break;
      case Op::kF64: {
        // Use a bit pattern that is a valid non-NaN double.
        rec.real = static_cast<double>(static_cast<int64_t>(rng.NextU64())) /
                   3.7;
        w.F64(rec.real);
        break;
      }
      case Op::kBytes: {
        rec.blob.resize(rng.NextU64() % 64);
        rng.Fill(rec.blob);
        w.Bytes(rec.blob);
        break;
      }
      case Op::kStr: {
        const size_t len = rng.NextU64() % 32;
        rec.str.resize(len);
        for (char& c : rec.str) {
          c = static_cast<char>('a' + (rng.NextU64() % 26));
        }
        w.Str(rec.str);
        break;
      }
    }
    log.push_back(std::move(rec));
  }

  ByteReader r(w.data());
  for (const Written& rec : log) {
    switch (rec.op) {
      case Op::kU8: EXPECT_EQ(r.U8(), rec.scalar); break;
      case Op::kU32: EXPECT_EQ(r.U32(), rec.scalar); break;
      case Op::kU64: EXPECT_EQ(r.U64(), rec.scalar); break;
      case Op::kI64:
        EXPECT_EQ(r.I64(), static_cast<int64_t>(rec.scalar));
        break;
      case Op::kF64: EXPECT_DOUBLE_EQ(r.F64(), rec.real); break;
      case Op::kBytes: EXPECT_EQ(r.Bytes(), rec.blob); break;
      case Op::kStr: EXPECT_EQ(r.Str(), rec.str); break;
    }
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace pem::net
