#include "net/serialize.h"

#include <gtest/gtest.h>

namespace pem::net {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0102030405060708ull);
  w.I64(-42);
  w.F64(3.14159);
  ByteReader r(w.data());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, BytesRoundTrip) {
  ByteWriter w;
  const std::vector<uint8_t> blob = {1, 2, 3, 4, 5};
  w.Bytes(blob);
  w.Bytes({});  // empty blob is legal
  ByteReader r(w.data());
  EXPECT_EQ(r.Bytes(), blob);
  EXPECT_TRUE(r.Bytes().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.Str("hello pem");
  w.Str("");
  ByteReader r(w.data());
  EXPECT_EQ(r.Str(), "hello pem");
  EXPECT_EQ(r.Str(), "");
}

TEST(Serialize, MixedSequencePreservesOrder) {
  ByteWriter w;
  w.U32(7);
  w.Str("x");
  w.F64(-0.5);
  ByteReader r(w.data());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.Str(), "x");
  EXPECT_DOUBLE_EQ(r.F64(), -0.5);
}

TEST(Serialize, SpecialFloats) {
  ByteWriter w;
  w.F64(0.0);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  ByteReader r(w.data());
  EXPECT_EQ(r.F64(), 0.0);
  EXPECT_EQ(r.F64(), -0.0);
  EXPECT_EQ(r.F64(), std::numeric_limits<double>::infinity());
}

TEST(Serialize, TakeMovesBuffer) {
  ByteWriter w;
  w.U32(1);
  const std::vector<uint8_t> taken = w.Take();
  EXPECT_EQ(taken.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

TEST(Serialize, RemainingTracksPosition) {
  ByteWriter w;
  w.U64(0);
  w.U32(0);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 12u);
  (void)r.U64();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(SerializeDeath, TruncatedScalarAborts) {
  const std::vector<uint8_t> two = {1, 2};
  ByteReader r(two);
  EXPECT_DEATH((void)r.U32(), "truncated");
}

TEST(SerializeDeath, TruncatedBlobAborts) {
  ByteWriter w;
  w.U32(100);  // claims 100 bytes follow; none do
  ByteReader r(w.data());
  EXPECT_DEATH((void)r.Bytes(), "truncated");
}

}  // namespace
}  // namespace pem::net
