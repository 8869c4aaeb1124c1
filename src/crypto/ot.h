// Batched 1-out-of-2 random oblivious transfer (semi-honest),
// Chou–Orlandi ("The Simplest Protocol for Oblivious Transfer",
// LATINCRYPT 2015) over P-256.
//
// The sender obtains two pads (p0_i, p1_i) per OT; the receiver, with
// choice bit c_i, obtains p_{c_i} and nothing about p_{1-c_i}; the
// sender learns nothing about the c_i.  The pads are random strings no
// party picks, so the OT itself ends after message 2.  The garbled-
// circuit secure comparison (Protocol 2, line 14) turns them into the
// evaluator's wire labels with one 16-byte correction per bit
// (crypto/secure_compare.h).
//
// One sender key serves the whole batch:
//   1. S -> R : A = aG
//   2. R -> S : B_i = b_iG (c_i = 0) or A + b_iG (c_i = 1), per OT
// then p0_i = H(i, A, B_i, aB_i) and p1_i = H(i, A, B_i, aB_i - aA) at
// the sender, and p_{c_i} = H(i, A, B_i, b_iA) at the receiver.
// Binding the pads to the index and the transcript points keeps two
// OTs of one batch independent even when the receiver repeats a B.
//
// A process that holds both keys (a forked child rebuilding the frames
// of the party it does not act for, crypto/secure_compare.h) needs no
// more than the party it acts for: the sender rebuilds each B_i with
// ReceiverPoint (one fixed-base multiplication, no pad), and the
// receiver gets both sender pads from the b_iA it computes anyway, since
// aB_i = b_iA + c_i·aA (one point addition, no decode of B_i and no
// multiplication by a).
//
// Every point travels as a 33-byte compressed SEC1 encoding; every
// received point is decoded (which checks it lies on the curve) and
// the point at infinity is refused.  Scalars come only from
// DrawOtScalar over the `Rng` the caller passes, so a deterministic
// stream gives a deterministic transcript.
//
// The API is message-passing friendly: each step produces the bytes to
// put on the wire, so the secure-comparison driver can route them
// through the bandwidth-accounted transport.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "crypto/rng.h"

namespace pem::crypto {

// Compressed P-256 point: one tag byte plus the 32-byte x coordinate.
inline constexpr size_t kOtPointBytes = 33;

// OT pads are 16-byte strings (exactly one wire label).
using OtPad = std::array<uint8_t, 16>;

// One OT key: a nonzero scalar mod the P-256 order, big-endian.  Wiped
// on destruction.
struct OtScalar {
  std::array<uint8_t, 32> bytes{};
  ~OtScalar();
};

// Draws one OT key from `rng`: 48 bytes reduced mod the order (within
// 2^-128 of uniform), redrawn in the negligible case that gives zero.
// The only place an OT key's draw schedule is written down.
OtScalar DrawOtScalar(Rng& rng);

// P-256 scalar multiplications run on the calling thread so far:
// fixed-base (kG) and variable-base (kP).  A deterministic work count,
// read before and after a call to show which steps of an OT a process
// ran.
struct P256MulCount {
  uint64_t fixed_base = 0;
  uint64_t variable_base = 0;
};
P256MulCount P256MulsOnThisThread();

class OtSender {
 public:
  // Uses `a` as the batch's sender key.
  explicit OtSender(const OtScalar& a);
  ~OtSender();
  OtSender(const OtSender&) = delete;
  OtSender& operator=(const OtSender&) = delete;

  // Message 1: A = aG, sent once for the whole batch.
  const std::vector<uint8_t>& Message1() const;

  // Both pads (p0, p1) of OT `index`, given the receiver's B for it.
  std::pair<OtPad, OtPad> Pads(uint64_t index,
                               std::span<const uint8_t> receiver_b) const;

  // The receiver's message 2 for one OT of this batch, B = bG (choice
  // 0) or A + bG (choice 1), rebuilt from its key b without its pad.
  std::vector<uint8_t> ReceiverPoint(bool choice, const OtScalar& b) const;

 private:
  friend class OtReceiver;
  struct State;
  std::unique_ptr<State> s_;
};

class OtReceiver {
 public:
  // Decodes the sender's message 1.
  explicit OtReceiver(std::span<const uint8_t> sender_a);
  ~OtReceiver();
  OtReceiver(const OtReceiver&) = delete;
  OtReceiver& operator=(const OtReceiver&) = delete;

  struct Choice {
    std::vector<uint8_t> b;  // message 2 for this OT
    OtPad pad;               // p_choice
    // (p0, p1) exactly as `sender.Pads(index, b)` gives them; set only
    // when Choose is given the batch's sender.
    std::optional<std::pair<OtPad, OtPad>> sender_pads;
  };

  // The next OT of the batch (index = number of earlier calls) with key
  // b: returns B = bG (choice 0) or A + bG (choice 1) with the chosen
  // pad.  Given `sender`, the batch's own sender (same A), it also
  // returns both of the sender's pads, at the cost of one point
  // addition.
  Choice Choose(bool choice, const OtScalar& b,
                const OtSender* sender = nullptr);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace pem::crypto
