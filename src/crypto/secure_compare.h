// Two-party secure comparison (Yao's millionaires problem) between two
// transport endpoints: the garbler holds x, the evaluator holds y,
// both learn [x < y] and nothing else.  This is the "secure comparison
// with Fairplay" step of Private Market Evaluation (Protocol 2,
// line 14).
//
// Wire protocol (all bytes routed through the bandwidth-accounted
// transport; the evaluator's input labels travel by one batched
// Chou–Orlandi OT over P-256, crypto/ot.h):
//   1. G -> E : garbled tables, decode bits, G's active input labels,
//               the OT sender point A (33 B, one for all bits)
//   2. E -> G : one OT point B_i per evaluator input bit (33 B each)
//   3. G -> E : one OT ciphertext pair per bit (32 B each)
//   4. E -> G : the decoded result bit (both parties learn the output,
//               as in the paper)
#pragma once

#include <cstdint>

#include "crypto/rng.h"
#include "net/transport.h"

namespace pem::crypto {

struct SecureCompareConfig {
  int bits = 64;
};

// Message type tags (namespaced to stay clear of protocol/ tags).
inline constexpr uint32_t kMsgGcTablesAndOt1 = 0x4743'0001;
inline constexpr uint32_t kMsgGcOtResponses = 0x4743'0002;
inline constexpr uint32_t kMsgGcOtFinal = 0x4743'0003;
inline constexpr uint32_t kMsgGcResult = 0x4743'0004;

// Runs the full protocol between the `garbler` endpoint (holding x)
// and the `evaluator` endpoint (holding y); both must belong to the
// same transport and to distinct agents.  Both agents' traffic is
// accounted on their endpoints.  Returns x < y (unsigned comparison
// over `cfg.bits` bits).
bool SecureCompareLess(net::Endpoint& garbler, uint64_t x,
                       net::Endpoint& evaluator, uint64_t y,
                       const SecureCompareConfig& cfg, Rng& rng);

}  // namespace pem::crypto
