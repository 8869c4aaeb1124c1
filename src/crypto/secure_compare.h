// Two-party secure comparison (Yao's millionaires problem) between two
// transport endpoints: the garbler holds x, the evaluator holds y,
// both learn [x < y] and nothing else.  This is the "secure comparison
// with Fairplay" step of Private Market Evaluation (Protocol 2,
// line 14).
//
// The circuit is the one-AND-per-bit comparator (crypto/circuit.h),
// garbled with half-gates (crypto/garble.h).  The evaluator's input
// labels come from one batched random OT over P-256 (crypto/ot.h): the
// 0-label of input bit i is the sender's pad p0_i, and the garbler
// sends the correction u_i = p0_i ^ p1_i ^ R (R the free-XOR offset),
// so the receiver's pad p_{y_i}, XORed with u_i when y_i = 1, is the
// label of y_i (the random-OT to correlated-OT step of Asharov et al.,
// CCS 2013).  The OT therefore runs before garbling.
//
// Wire protocol (all bytes routed through the bandwidth-accounted
// transport; every field has a fixed width, so no length prefixes,
// and each message's size is checked exactly):
//   1. G -> E : the OT sender point A (33 B, one for all bits)
//   2. E -> G : one OT point B_i per evaluator input bit (33 B each)
//   3. G -> E : garbled tables (32 B per AND gate + 1 decode bit), G's
//               active input labels and the OT corrections (16 B per
//               bit each)
//   4. E -> G : the decoded result bit (both parties learn the output,
//               as in the paper)
// At 64 bits that is 33 + 2,112 + 4,097 + 1 payload bytes.
//
// Each process computes only the half of the endpoint it acts for
// (net::Endpoint::acts).  A forked child holds both inputs in its
// replica of the script (market evaluation reads the blinded sums from
// the ring's openings, protocol/context.h) and draws all of the
// compare's randomness up front, so every frame follows one rule: the
// sender's process computes it, a process that only receives it
// rebuilds it from the drawn coins, and any other process zero-fills it
// at its fixed size.
//   * Garbler's process: builds the OT sender, rebuilds each B_i of
//     message 2 from the evaluator's keys (one fixed-base
//     multiplication per bit, crypto/ot.h) and takes both pads from
//     the rebuilt points rather than decoding message 2, garbles, and
//     takes the result bit for x < y instead of evaluating.
//   * Evaluator's process: rebuilds A from the sender key, chooses, and
//     rebuilds message 3 from the garbler's coins, with both sender
//     pads derived from its own b_iA (one point addition per bit).
//   * Neither: zero-filled frames but for the result bit, x < y.
// Every frame a process consumes for its own agent is still
// byte-matched against the wire (net/child_transport.h), and market
// evaluation has every agent but Hr1 byte-match Hr1's broadcast of the
// market case.  The in-process bus acts for both endpoints and runs
// both halves whole.
#pragma once

#include <cstdint>

#include "crypto/rng.h"
#include "net/transport.h"

namespace pem::crypto {

struct SecureCompareConfig {
  int bits = 64;
};

// Message type tags (namespaced to stay clear of protocol/ tags).
inline constexpr uint32_t kMsgGcOtSetup = 0x4743'0001;
inline constexpr uint32_t kMsgGcOtChoices = 0x4743'0002;
inline constexpr uint32_t kMsgGcTables = 0x4743'0003;
inline constexpr uint32_t kMsgGcResult = 0x4743'0004;

// Runs the full protocol between the `garbler` endpoint (holding x)
// and the `evaluator` endpoint (holding y); both must belong to the
// same transport and to distinct agents.  Both agents' traffic is
// accounted on their endpoints.  Returns x < y (unsigned comparison
// over `cfg.bits` bits).  Whichever endpoints this process acts for,
// it draws the same randomness and accounts the same frames, computing
// only the acting endpoints' halves (see above).
bool SecureCompareLess(net::Endpoint& garbler, uint64_t x,
                       net::Endpoint& evaluator, uint64_t y,
                       const SecureCompareConfig& cfg, Rng& rng);

}  // namespace pem::crypto
