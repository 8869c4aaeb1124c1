#include "crypto/ot.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "crypto/rng.h"

namespace pem::crypto {
namespace {

// Runs a batch of random OTs (one per choice) locally under one sender
// key and returns, per OT, the sender's pads and the receiver's pad.
struct BatchResult {
  std::vector<std::pair<OtPad, OtPad>> sender;
  std::vector<OtPad> receiver;
};

BatchResult RunBatch(const std::vector<bool>& choices, uint64_t seed) {
  DeterministicRng rng(seed);
  const OtSender sender(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  BatchResult out;
  for (size_t i = 0; i < choices.size(); ++i) {
    const OtReceiver::Choice c =
        receiver.Choose(choices[i], DrawOtScalar(rng));
    out.sender.push_back(sender.Pads(i, c.b));
    out.receiver.push_back(c.pad);
  }
  return out;
}

// Malformed points.  A valid point in the wrong (uncompressed) form:
// the P-256 generator as 04 || x || y.
std::vector<uint8_t> UncompressedGenerator() {
  const char* hex =
      "046B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296"
      "4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5";
  std::vector<uint8_t> out;
  for (size_t i = 0; hex[i] != '\0'; i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoi(std::string(hex + i, 2), nullptr, 16)));
  }
  return out;
}

// x = 1: 1 - 3 + b is not a square mod p, so no point has this x.
std::vector<uint8_t> OffCurvePoint() {
  std::vector<uint8_t> p(kOtPointBytes, 0);
  p[0] = 0x02;
  p[kOtPointBytes - 1] = 0x01;
  return p;
}

// SEC1's one-byte encoding of the point at infinity.
std::vector<uint8_t> InfinityPoint() { return {0x00}; }

TEST(ObliviousTransfer, ReceiverGetsChosenMessageZero) {
  const BatchResult r = RunBatch({false}, 1);
  EXPECT_EQ(r.receiver[0], r.sender[0].first);
}

TEST(ObliviousTransfer, ReceiverGetsChosenMessageOne) {
  const BatchResult r = RunBatch({true}, 2);
  EXPECT_EQ(r.receiver[0], r.sender[0].second);
}

TEST(ObliviousTransfer, WorksAcrossManySeeds) {
  // Both choices at every index of a batch, under many sender keys.
  for (uint64_t seed = 10; seed < 30; ++seed) {
    std::vector<bool> choices(8);
    for (size_t i = 0; i < choices.size(); ++i) {
      choices[i] = ((seed + i) % 2) == 0;
    }
    const BatchResult r = RunBatch(choices, seed);
    for (size_t i = 0; i < choices.size(); ++i) {
      EXPECT_EQ(r.receiver[i],
                choices[i] ? r.sender[i].second : r.sender[i].first)
          << seed << "/" << i;
    }
  }
}

TEST(ObliviousTransfer, UnchosenPadLooksUnrelated) {
  // The receiver's pad is the chosen one only: it differs from the
  // unchosen pad, and the two sender pads differ from each other, at
  // every index of a batch.
  for (bool choice : {false, true}) {
    const BatchResult r = RunBatch(std::vector<bool>(8, choice), 3);
    for (size_t i = 0; i < r.receiver.size(); ++i) {
      const auto& [p0, p1] = r.sender[i];
      EXPECT_NE(r.receiver[i], choice ? p0 : p1) << choice << "/" << i;
      EXPECT_NE(p0, p1) << choice << "/" << i;
    }
  }
}

TEST(ObliviousTransfer, SameBAtTwoIndexesGivesDifferentPads) {
  // The pads bind the OT index: a receiver that replays one B at two
  // indexes gets unrelated pads, not one pad twice.
  DeterministicRng rng(11);
  const OtSender sender(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  const OtReceiver::Choice c = receiver.Choose(false, DrawOtScalar(rng));
  const auto at0 = sender.Pads(0, c.b);
  const auto at1 = sender.Pads(1, c.b);
  EXPECT_EQ(at0.first, c.pad);
  EXPECT_NE(at0.first, at1.first);
  EXPECT_NE(at0.second, at1.second);
}

TEST(ObliviousTransfer, Round1ElementsAreGroupSized) {
  // Every point on the wire is a 33-byte compressed P-256 encoding.
  DeterministicRng rng(4);
  const OtSender sender(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  EXPECT_EQ(sender.Message1().size(), kOtPointBytes);
  EXPECT_EQ(receiver.Choose(true, DrawOtScalar(rng)).b.size(), kOtPointBytes);
  EXPECT_EQ(receiver.Choose(false, DrawOtScalar(rng)).b.size(), kOtPointBytes);
}

TEST(ObliviousTransfer, SenderRound1IsStable) {
  DeterministicRng rng(5);
  const OtSender sender(DrawOtScalar(rng));
  EXPECT_EQ(sender.Message1(), sender.Message1());
}

TEST(ObliviousTransfer, TranscriptIsAFunctionOfTheSeed) {
  // Scalars come only from the passed Rng: equal seeds give equal
  // points, different seeds different ones.
  auto points = [](uint64_t seed) {
    DeterministicRng rng(seed);
    const OtSender sender(DrawOtScalar(rng));
    OtReceiver receiver(sender.Message1());
    std::vector<uint8_t> all = sender.Message1();
    const std::vector<uint8_t> b = receiver.Choose(true, DrawOtScalar(rng)).b;
    all.insert(all.end(), b.begin(), b.end());
    return all;
  };
  EXPECT_EQ(points(12), points(12));
  EXPECT_NE(points(12), points(13));
}

TEST(ObliviousTransfer, SenderRebuildsTheReceiversPoints) {
  // ReceiverPoint gives the B that Choose puts on the wire, for both
  // choices at every index, from the receiver's key alone, and the
  // pads Pads derives from that B.
  DeterministicRng rng(14);
  const OtSender sender(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  for (size_t i = 0; i < 8; ++i) {
    const bool choice = (i % 3) == 1;
    const OtScalar key = DrawOtScalar(rng);
    const OtSender::Rebuilt rebuilt = sender.ReceiverPoint(i, choice, key);
    const OtReceiver::Choice c = receiver.Choose(choice, key);
    EXPECT_EQ(rebuilt.b, c.b) << i;
    EXPECT_EQ(rebuilt.pads, sender.Pads(i, c.b)) << i;
    EXPECT_EQ(choice ? rebuilt.pads.second : rebuilt.pads.first, c.pad) << i;
  }
}

TEST(ObliviousTransfer, ReceiverGivenTheSenderGetsBothSenderPads) {
  // Given the batch's sender, Choose returns exactly the pads the
  // sender's Pads derives from B, for both choices, and the same B and
  // chosen pad as without it.
  DeterministicRng rng(15);
  DeterministicRng same(15);
  const OtSender sender(DrawOtScalar(rng));
  const OtSender twin(DrawOtScalar(same));
  OtReceiver with_sender(sender.Message1());
  OtReceiver alone(twin.Message1());
  for (size_t i = 0; i < 8; ++i) {
    const bool choice = (i % 2) == 0;
    const OtReceiver::Choice c =
        with_sender.Choose(choice, DrawOtScalar(rng), &sender);
    const OtReceiver::Choice plain = alone.Choose(choice, DrawOtScalar(same));
    ASSERT_TRUE(c.sender_pads.has_value()) << i;
    EXPECT_FALSE(plain.sender_pads.has_value()) << i;
    EXPECT_EQ(*c.sender_pads, sender.Pads(i, c.b)) << i;
    EXPECT_EQ(c.b, plain.b) << i;
    EXPECT_EQ(c.pad, plain.pad) << i;
  }
}

TEST(ObliviousTransferDeath, ReceiverGivenAnotherBatchsSenderAborts) {
  DeterministicRng rng(16);
  const OtSender sender(DrawOtScalar(rng));
  const OtSender other(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  EXPECT_DEATH((void)receiver.Choose(true, DrawOtScalar(rng), &other),
               "another batch");
}

TEST(ObliviousTransferDeath, BadElementSizeAborts) {
  DeterministicRng rng(6);
  const OtSender sender(DrawOtScalar(rng));
  EXPECT_DEATH((void)sender.Pads(0, UncompressedGenerator()), "wrong size");
}

TEST(ObliviousTransferDeath, BadRound2SizeAborts) {
  // A round-2 point one byte short is no point at all.
  DeterministicRng rng(7);
  const OtSender sender(DrawOtScalar(rng));
  OtReceiver receiver(sender.Message1());
  std::vector<uint8_t> b = receiver.Choose(false, DrawOtScalar(rng)).b;
  b.pop_back();
  EXPECT_DEATH((void)sender.Pads(0, b), "not on P-256");
}

TEST(ObliviousTransferDeath, Message1WrongSizeAborts) {
  EXPECT_DEATH(OtReceiver receiver(UncompressedGenerator()), "wrong size");
}

TEST(ObliviousTransferDeath, Message1OffCurveAborts) {
  EXPECT_DEATH(OtReceiver receiver(OffCurvePoint()), "not on P-256");
}

TEST(ObliviousTransferDeath, Message1InfinityAborts) {
  EXPECT_DEATH(OtReceiver receiver(InfinityPoint()), "infinity");
}

TEST(ObliviousTransferDeath, Message2OffCurveAborts) {
  DeterministicRng rng(8);
  const OtSender sender(DrawOtScalar(rng));
  EXPECT_DEATH((void)sender.Pads(0, OffCurvePoint()), "not on P-256");
}

TEST(ObliviousTransferDeath, Message2InfinityAborts) {
  DeterministicRng rng(9);
  const OtSender sender(DrawOtScalar(rng));
  EXPECT_DEATH((void)sender.Pads(0, InfinityPoint()), "infinity");
}

}  // namespace
}  // namespace pem::crypto
