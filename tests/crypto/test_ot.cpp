#include "crypto/ot.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/rng.h"

namespace pem::crypto {
namespace {

OtMessage MakeMessage(uint8_t fill) {
  OtMessage m;
  m.fill(fill);
  return m;
}

// Runs a batch of OTs (one per choice) locally under one sender key and
// returns what the receiver got.
std::vector<OtMessage> RunBatch(const std::vector<OtMessage>& m0,
                                const std::vector<OtMessage>& m1,
                                const std::vector<bool>& choices,
                                uint64_t seed) {
  DeterministicRng rng(seed);
  const OtSender sender(rng);
  OtReceiver receiver(sender.Message1());
  std::vector<OtMessage> got;
  for (size_t i = 0; i < choices.size(); ++i) {
    const std::vector<uint8_t> b = receiver.Choose(choices[i], rng);
    got.push_back(receiver.Decrypt(i, sender.Encrypt(i, b, m0[i], m1[i])));
  }
  return got;
}

OtMessage RunOt(const OtMessage& m0, const OtMessage& m1, bool choice,
                uint64_t seed) {
  return RunBatch({m0}, {m1}, {choice}, seed)[0];
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
  EXPECT_EQ(RunOt(MakeMessage(0xAA), MakeMessage(0xBB), false, 1),
            MakeMessage(0xAA));
}

TEST(ObliviousTransfer, ReceiverGetsChosenMessageOne) {
  EXPECT_EQ(RunOt(MakeMessage(0xAA), MakeMessage(0xBB), true, 2),
            MakeMessage(0xBB));
}

TEST(ObliviousTransfer, WorksAcrossManySeeds) {
  // Both choices at every index of a batch, under many sender keys.
  for (uint64_t seed = 10; seed < 30; ++seed) {
    DeterministicRng fill(seed * 7);
    std::vector<OtMessage> m0(8), m1(8);
    std::vector<bool> choices(8);
    for (size_t i = 0; i < choices.size(); ++i) {
      fill.Fill(m0[i]);
      fill.Fill(m1[i]);
      choices[i] = ((seed + i) % 2) == 0;
    }
    const std::vector<OtMessage> got = RunBatch(m0, m1, choices, seed);
    for (size_t i = 0; i < choices.size(); ++i) {
      EXPECT_EQ(got[i], choices[i] ? m1[i] : m0[i]) << seed << "/" << i;
    }
  }
}

TEST(ObliviousTransfer, UnchosenPadLooksUnrelated) {
  // The receiver's transcript must not decrypt the other message: swap
  // the ciphertext halves so each choice unmasks the wrong slot.
  for (bool choice : {false, true}) {
    DeterministicRng rng(3);
    const OtSender sender(rng);
    OtReceiver receiver(sender.Message1());
    const std::vector<uint8_t> b = receiver.Choose(choice, rng);
    const OtMessage m0 = MakeMessage(0x00), m1 = MakeMessage(0xFF);
    const std::vector<uint8_t> cts = sender.Encrypt(0, b, m0, m1);
    std::vector<uint8_t> swapped(cts.begin() + 16, cts.end());
    swapped.insert(swapped.end(), cts.begin(), cts.begin() + 16);
    const OtMessage wrong = receiver.Decrypt(0, swapped);
    EXPECT_NE(wrong, m0) << choice;
    EXPECT_NE(wrong, m1) << choice;
  }
}

TEST(ObliviousTransfer, SameBAtTwoIndexesGivesDifferentPads) {
  // The pads bind the OT index: a receiver that replays one B at two
  // indexes gets unrelated pads, not one pad twice.
  DeterministicRng rng(11);
  const OtSender sender(rng);
  OtReceiver receiver(sender.Message1());
  const std::vector<uint8_t> b = receiver.Choose(false, rng);
  const OtMessage zero = MakeMessage(0);
  const std::vector<uint8_t> at0 = sender.Encrypt(0, b, zero, zero);
  const std::vector<uint8_t> at1 = sender.Encrypt(1, b, zero, zero);
  ASSERT_EQ(at0.size(), kOtCiphertextBytes);
  EXPECT_NE(std::vector<uint8_t>(at0.begin(), at0.begin() + 16),
            std::vector<uint8_t>(at1.begin(), at1.begin() + 16));
  EXPECT_NE(std::vector<uint8_t>(at0.begin() + 16, at0.end()),
            std::vector<uint8_t>(at1.begin() + 16, at1.end()));
}

TEST(ObliviousTransfer, Round1ElementsAreGroupSized) {
  // Every point on the wire is a 33-byte compressed P-256 encoding.
  DeterministicRng rng(4);
  const OtSender sender(rng);
  OtReceiver receiver(sender.Message1());
  EXPECT_EQ(sender.Message1().size(), kOtPointBytes);
  EXPECT_EQ(receiver.Choose(true, rng).size(), kOtPointBytes);
  EXPECT_EQ(receiver.Choose(false, rng).size(), kOtPointBytes);
}

TEST(ObliviousTransfer, SenderRound1IsStable) {
  DeterministicRng rng(5);
  const OtSender sender(rng);
  EXPECT_EQ(sender.Message1(), sender.Message1());
}

TEST(ObliviousTransfer, TranscriptIsAFunctionOfTheSeed) {
  // Scalars come only from the passed Rng: equal seeds give equal
  // points, different seeds different ones.
  auto points = [](uint64_t seed) {
    DeterministicRng rng(seed);
    const OtSender sender(rng);
    OtReceiver receiver(sender.Message1());
    std::vector<uint8_t> all = sender.Message1();
    const std::vector<uint8_t> b = receiver.Choose(true, rng);
    all.insert(all.end(), b.begin(), b.end());
    return all;
  };
  EXPECT_EQ(points(12), points(12));
  EXPECT_NE(points(12), points(13));
}

TEST(ObliviousTransferDeath, BadElementSizeAborts) {
  DeterministicRng rng(6);
  const OtSender sender(rng);
  EXPECT_DEATH((void)sender.Encrypt(0, UncompressedGenerator(),
                                    MakeMessage(0), MakeMessage(1)),
               "wrong size");
}

TEST(ObliviousTransferDeath, BadRound2SizeAborts) {
  DeterministicRng rng(7);
  const OtSender sender(rng);
  OtReceiver receiver(sender.Message1());
  (void)receiver.Choose(false, rng);
  const std::vector<uint8_t> junk(kOtCiphertextBytes - 1, 0);
  EXPECT_DEATH((void)receiver.Decrypt(0, junk), "ciphertext size");
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
  const OtSender sender(rng);
  EXPECT_DEATH((void)sender.Encrypt(0, OffCurvePoint(), MakeMessage(0),
                                    MakeMessage(1)),
               "not on P-256");
}

TEST(ObliviousTransferDeath, Message2InfinityAborts) {
  DeterministicRng rng(9);
  const OtSender sender(rng);
  EXPECT_DEATH((void)sender.Encrypt(0, InfinityPoint(), MakeMessage(0),
                                    MakeMessage(1)),
               "infinity");
}

}  // namespace
}  // namespace pem::crypto
