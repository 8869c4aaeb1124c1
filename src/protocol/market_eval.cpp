#include "protocol/market_eval.h"

#include <algorithm>

#include "crypto/secure_compare.h"
#include "protocol/coin_flip.h"
#include "util/error.h"

namespace pem::protocol {

MarketEvalResult RunPrivateMarketEvaluation(ProtocolContext& ctx,
                                            std::span<Party> parties,
                                            const Coalitions& coalitions) {
  PEM_CHECK(!coalitions.sellers.empty() && !coalitions.buyers.empty(),
            "market evaluation requires both coalitions");

  MarketEvalResult result;

  // --- Round 1: aggregate blinded demand under a random seller's key --
  const size_t hr1 = SelectAgent(ctx, parties, coalitions.sellers);
  result.hr1_seller_index = hr1;
  Party& seller_hr1 = parties[hr1];
  AnnounceKey(ctx, seller_hr1);

  // Ring: every buyer contributes |sn_j| + r_j, then every seller
  // except Hr1 contributes its nonce r_i; Hr1 decrypts and adds its own
  // nonce locally (equivalent to being the last ring member).
  std::vector<size_t> ring1 = coalitions.buyers;
  for (size_t s : coalitions.sellers) {
    if (s != hr1) ring1.push_back(s);
  }
  const RingCiphertext agg1 = RingAggregate(
      ctx, seller_hr1.public_key(), parties, ring1,
      [](const Party& p) {
        if (p.role() == grid::Role::kBuyer) return -p.net_raw() + p.nonce();
        return p.nonce();
      },
      seller_hr1.id());
  const int64_t rb =
      OwnerDecryptSigned(ctx, seller_hr1, agg1) + seller_hr1.nonce();

  // --- Round 2: aggregate blinded supply under a random buyer's key ---
  const size_t hr2 = SelectAgent(ctx, parties, coalitions.buyers);
  result.hr2_buyer_index = hr2;
  Party& buyer_hr2 = parties[hr2];
  AnnounceKey(ctx, buyer_hr2);

  std::vector<size_t> ring2 = coalitions.sellers;
  for (size_t b : coalitions.buyers) {
    if (b != hr2) ring2.push_back(b);
  }
  const RingCiphertext agg2 = RingAggregate(
      ctx, buyer_hr2.public_key(), parties, ring2,
      [](const Party& p) {
        if (p.role() == grid::Role::kSeller) return p.net_raw() + p.nonce();
        return p.nonce();
      },
      buyer_hr2.id());
  const int64_t rs =
      OwnerDecryptSigned(ctx, buyer_hr2, agg2) + buyer_hr2.nonce();

  // Both blinded sums carry the same Σ nonces, so [Rs < Rb] iff
  // [E_s < E_b].  They are non-negative and bounded well below 2^63.
  PEM_CHECK(rs >= 0 && rb >= 0, "blinded sums must be non-negative");

  // --- Secure comparison (garbled circuit, Protocol 2 line 14) --------
  result.general_market = crypto::SecureCompareLess(
      ctx.ep(buyer_hr2.id()), static_cast<uint64_t>(rs),
      ctx.ep(seller_hr1.id()), static_cast<uint64_t>(rb), ctx.config.compare,
      ctx.rng);

  // Hr1 announces the market case to everyone (1 bit).
  net::ByteWriter w;
  w.U8(result.general_market ? 1 : 0);
  ctx.ep(seller_hr1.id()).Send(net::kBroadcast, kMsgMarketCase, w.Take());
  for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
    if (a == seller_hr1.id()) continue;
    net::Message m = ExpectMessage(ctx.ep(a), kMsgMarketCase);
    net::ByteReader r(m.payload);
    PEM_CHECK((r.U8() != 0) == result.general_market, "market case mismatch");
  }
  return result;
}

}  // namespace pem::protocol
