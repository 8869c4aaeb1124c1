#include "crypto/ot.h"

#include <openssl/bn.h>
#include <openssl/ec.h>
#include <openssl/obj_mac.h>

#include <cstring>

#include "crypto/hash.h"
#include "util/error.h"

namespace pem::crypto {
namespace {

constexpr uint64_t kOtKdfTag = 0x4F54'5041'4421ull;  // "OTPAD!"
// Bytes drawn per scalar: 128 bits beyond the 256-bit order, so the
// reduction mod the order is within 2^-128 of uniform.
constexpr size_t kScalarDrawBytes = 48;

struct BnFree {
  void operator()(BIGNUM* p) const { BN_clear_free(p); }
};
struct BnCtxFree {
  void operator()(BN_CTX* p) const { BN_CTX_free(p); }
};
struct PointFree {
  void operator()(EC_POINT* p) const { EC_POINT_clear_free(p); }
};
struct GroupFree {
  void operator()(EC_GROUP* p) const { EC_GROUP_free(p); }
};
using Scalar = std::unique_ptr<BIGNUM, BnFree>;
using BnCtx = std::unique_ptr<BN_CTX, BnCtxFree>;
using Point = std::unique_ptr<EC_POINT, PointFree>;

thread_local P256MulCount t_muls;

// Built on the first OT, not at load time, so runs that never compare
// pay nothing.  Read-only afterwards, hence shareable across threads.
const EC_GROUP* P256() {
  static const std::unique_ptr<EC_GROUP, GroupFree> group(
      EC_GROUP_new_by_curve_name(NID_X9_62_prime256v1));
  PEM_CHECK(group != nullptr, "OT: P-256 unavailable");
  return group.get();
}

BnCtx NewCtx() {
  BnCtx ctx(BN_CTX_new());
  PEM_CHECK(ctx != nullptr, "OT: BN_CTX_new failed");
  return ctx;
}

Point NewPoint() {
  Point p(EC_POINT_new(P256()));
  PEM_CHECK(p != nullptr, "OT: EC_POINT_new failed");
  return p;
}

Scalar NewScalar() {
  Scalar k(BN_secure_new());
  PEM_CHECK(k != nullptr, "OT: BN_new failed");
  return k;
}

Scalar ToScalar(const OtScalar& s) {
  Scalar k = NewScalar();
  PEM_CHECK(BN_bin2bn(s.bytes.data(), s.bytes.size(), k.get()) != nullptr,
            "OT: BN_bin2bn failed");
  return k;
}

// kG, through OpenSSL's fixed-base path.
Point MulBase(const BIGNUM* k, BN_CTX* ctx) {
  ++t_muls.fixed_base;
  Point r = NewPoint();
  PEM_CHECK(EC_POINT_mul(P256(), r.get(), k, nullptr, nullptr, ctx) == 1,
            "OT: EC_POINT_mul failed");
  return r;
}

// kP.
Point Mul(const EC_POINT* p, const BIGNUM* k, BN_CTX* ctx) {
  ++t_muls.variable_base;
  Point r = NewPoint();
  PEM_CHECK(EC_POINT_mul(P256(), r.get(), nullptr, p, k, ctx) == 1,
            "OT: EC_POINT_mul failed");
  return r;
}

Point Add(const EC_POINT* a, const EC_POINT* b, BN_CTX* ctx) {
  Point r = NewPoint();
  PEM_CHECK(EC_POINT_add(P256(), r.get(), a, b, ctx) == 1,
            "OT: EC_POINT_add failed");
  return r;
}

// The receiver's B for key b: bG (choice 0) or A + bG (choice 1).
Point ReceiverB(const EC_POINT* big_a, const BIGNUM* b, bool choice,
                BN_CTX* ctx) {
  Point big_b = MulBase(b, ctx);
  if (choice) big_b = Add(big_a, big_b.get(), ctx);
  return big_b;
}

std::vector<uint8_t> Encode(const EC_POINT* p, BN_CTX* ctx) {
  std::vector<uint8_t> out(kOtPointBytes);
  PEM_CHECK(EC_POINT_point2oct(P256(), p, POINT_CONVERSION_COMPRESSED,
                               out.data(), out.size(), ctx) == kOtPointBytes,
            "OT: point encoding failed");
  return out;
}

// Decodes a peer's point: on the curve, not infinity, compressed.
Point Decode(std::span<const uint8_t> bytes, BN_CTX* ctx) {
  Point p = NewPoint();
  PEM_CHECK(EC_POINT_oct2point(P256(), p.get(), bytes.data(), bytes.size(),
                               ctx) == 1,
            "OT: received point is not on P-256");
  PEM_CHECK(EC_POINT_is_at_infinity(P256(), p.get()) == 0,
            "OT: received point at infinity");
  PEM_CHECK(bytes.size() == kOtPointBytes,
            "OT: received point has the wrong size");
  return p;
}

// H(index, A, B, P), truncated to one pad.
OtPad Pad(uint64_t index, std::span<const uint8_t> a,
          std::span<const uint8_t> b, const EC_POINT* p, BN_CTX* ctx) {
  uint8_t index_bytes[8];
  std::memcpy(index_bytes, &index, sizeof index_bytes);
  const std::vector<uint8_t> p_bytes = Encode(p, ctx);
  const std::span<const uint8_t> chunks[] = {index_bytes, a, b, p_bytes};
  const Sha256Digest d = Kdf(kOtKdfTag, chunks);
  OtPad pad;
  std::memcpy(pad.data(), d.bytes.data(), pad.size());
  return pad;
}

}  // namespace

P256MulCount P256MulsOnThisThread() { return t_muls; }

OtScalar::~OtScalar() { OPENSSL_cleanse(bytes.data(), bytes.size()); }

OtScalar DrawOtScalar(Rng& rng) {
  const BnCtx ctx = NewCtx();
  const BIGNUM* order = EC_GROUP_get0_order(P256());
  Scalar k = NewScalar();
  uint8_t draw[kScalarDrawBytes];
  do {
    rng.Fill(draw);
    PEM_CHECK(BN_bin2bn(draw, sizeof draw, k.get()) != nullptr,
              "OT: BN_bin2bn failed");
    PEM_CHECK(BN_nnmod(k.get(), k.get(), order, ctx.get()) == 1,
              "OT: BN_nnmod failed");
  } while (BN_is_zero(k.get()));
  OPENSSL_cleanse(draw, sizeof draw);
  OtScalar out;
  PEM_CHECK(BN_bn2binpad(k.get(), out.bytes.data(),
                         static_cast<int>(out.bytes.size())) ==
                static_cast<int>(out.bytes.size()),
            "OT: BN_bn2binpad failed");
  return out;
}

struct OtSender::State {
  BnCtx ctx = NewCtx();
  Scalar a;
  Point big_a;                       // A = aG
  std::vector<uint8_t> big_a_bytes;  // A, encoded
  Point aa;                          // aA
  Point neg_aa;                      // -aA, so aB - aA is one addition
};

OtSender::OtSender(const OtScalar& a) : s_(std::make_unique<State>()) {
  BN_CTX* ctx = s_->ctx.get();
  s_->a = ToScalar(a);
  s_->big_a = MulBase(s_->a.get(), ctx);
  s_->big_a_bytes = Encode(s_->big_a.get(), ctx);
  s_->aa = Mul(s_->big_a.get(), s_->a.get(), ctx);
  s_->neg_aa.reset(EC_POINT_dup(s_->aa.get(), P256()));
  PEM_CHECK(s_->neg_aa != nullptr, "OT: EC_POINT_dup failed");
  PEM_CHECK(EC_POINT_invert(P256(), s_->neg_aa.get(), ctx) == 1,
            "OT: EC_POINT_invert failed");
}

OtSender::~OtSender() = default;

const std::vector<uint8_t>& OtSender::Message1() const {
  return s_->big_a_bytes;
}

std::pair<OtPad, OtPad> OtSender::Pads(
    uint64_t index, std::span<const uint8_t> receiver_b) const {
  BN_CTX* ctx = s_->ctx.get();
  const Point big_b = Decode(receiver_b, ctx);
  const Point ab = Mul(big_b.get(), s_->a.get(), ctx);
  const Point ab_minus_aa = Add(ab.get(), s_->neg_aa.get(), ctx);
  return {Pad(index, s_->big_a_bytes, receiver_b, ab.get(), ctx),
          Pad(index, s_->big_a_bytes, receiver_b, ab_minus_aa.get(), ctx)};
}

std::vector<uint8_t> OtSender::ReceiverPoint(bool choice,
                                             const OtScalar& b) const {
  BN_CTX* ctx = s_->ctx.get();
  const Scalar k = ToScalar(b);
  return Encode(ReceiverB(s_->big_a.get(), k.get(), choice, ctx).get(), ctx);
}

struct OtReceiver::State {
  BnCtx ctx = NewCtx();
  Point big_a;
  std::vector<uint8_t> big_a_bytes;
  uint64_t next_index = 0;
};

OtReceiver::OtReceiver(std::span<const uint8_t> sender_a)
    : s_(std::make_unique<State>()) {
  s_->big_a = Decode(sender_a, s_->ctx.get());
  s_->big_a_bytes.assign(sender_a.begin(), sender_a.end());
}

OtReceiver::~OtReceiver() = default;

OtReceiver::Choice OtReceiver::Choose(bool choice, const OtScalar& key,
                                      const OtSender* sender) {
  BN_CTX* ctx = s_->ctx.get();
  const Scalar b = ToScalar(key);
  const uint64_t index = s_->next_index++;
  Choice out;
  out.b = Encode(ReceiverB(s_->big_a.get(), b.get(), choice, ctx).get(), ctx);
  // b_iA = aB_i (choice 0) = aB_i - aA (choice 1): the chosen pad.
  const Point ba = Mul(s_->big_a.get(), b.get(), ctx);
  out.pad = Pad(index, s_->big_a_bytes, out.b, ba.get(), ctx);
  if (sender != nullptr) {
    const OtSender::State& s = *sender->s_;
    PEM_CHECK(s.big_a_bytes == s_->big_a_bytes,
              "OT: the sender given to Choose runs another batch");
    // The unchosen pad: aB_i = b_iA + aA (choice 1), and
    // aB_i - aA = b_iA - aA (choice 0).
    const Point other =
        Add(ba.get(), choice ? s.aa.get() : s.neg_aa.get(), ctx);
    const OtPad unchosen = Pad(index, s_->big_a_bytes, out.b, other.get(), ctx);
    out.sender_pads = choice ? std::pair{unchosen, out.pad}
                             : std::pair{out.pad, unchosen};
  }
  return out;
}

}  // namespace pem::crypto
