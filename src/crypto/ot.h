// Batched 1-out-of-2 oblivious transfer (semi-honest), Chou–Orlandi
// ("The Simplest Protocol for Oblivious Transfer", LATINCRYPT 2015)
// over P-256.
//
// Sender holds pairs (m0_i, m1_i); receiver holds choice bits c_i and
// learns each m_{c_i} and nothing about m_{1-c_i}; sender learns
// nothing about the c_i.  Used to deliver the evaluator's wire labels
// in the garbled-circuit secure comparison (Protocol 2, line 14).
//
// One sender key serves the whole batch:
//   1. S -> R : A = aG
//   2. R -> S : B_i = b_iG (c_i = 0) or A + b_iG (c_i = 1), per OT
//   3. S -> R : m0_i ^ H(i, A, B_i, aB_i) || m1_i ^ H(i, A, B_i, aB_i - aA)
// and the receiver unmasks slot c_i with H(i, A, B_i, b_iA).  Binding
// the pads to the index and the transcript points keeps two OTs of one
// batch independent even when the receiver repeats a B.
//
// Every point travels as a 33-byte compressed SEC1 encoding; every
// received point is decoded (which checks it lies on the curve) and
// the point at infinity is refused.  Scalars come only from the `Rng`
// the caller passes, so a deterministic stream gives a deterministic
// transcript.
//
// The API is message-passing friendly: each step produces the bytes to
// put on the wire, so the secure-comparison driver can route them
// through the bandwidth-accounted transport.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/rng.h"

namespace pem::crypto {

// Compressed P-256 point: one tag byte plus the 32-byte x coordinate.
inline constexpr size_t kOtPointBytes = 33;
// One message-3 ciphertext: both masked messages.
inline constexpr size_t kOtCiphertextBytes = 32;

// OT payloads are 16-byte strings (exactly one wire label).
using OtMessage = std::array<uint8_t, 16>;

class OtSender {
 public:
  // Draws the batch's sender key a.
  explicit OtSender(Rng& rng);
  ~OtSender();
  OtSender(const OtSender&) = delete;
  OtSender& operator=(const OtSender&) = delete;

  // Message 1: A = aG, sent once for the whole batch.
  const std::vector<uint8_t>& Message1() const;

  // Message 3 for OT `index`: given the receiver's B for that OT,
  // encrypts both messages.  Wire format: c0 || c1 (16 bytes each).
  std::vector<uint8_t> Encrypt(uint64_t index,
                               std::span<const uint8_t> receiver_b,
                               const OtMessage& m0, const OtMessage& m1) const;

 private:
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

  // Message 2 for the next OT of the batch (index = number of earlier
  // calls): draws b from `rng` and returns B = bG (choice 0) or A + bG
  // (choice 1).
  std::vector<uint8_t> Choose(bool choice, Rng& rng);

  // Decrypts OT `index`'s chosen message from its message-3 bytes.
  OtMessage Decrypt(uint64_t index, std::span<const uint8_t> ciphertext) const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace pem::crypto
