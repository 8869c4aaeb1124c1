#include "protocol/pricing.h"

#include "protocol/coin_flip.h"
#include "util/error.h"
#include "util/fixed_point.h"

namespace pem::protocol {

PricingResult RunPrivatePricing(ProtocolContext& ctx,
                                std::span<Party> parties,
                                const Coalitions& coalitions) {
  PEM_CHECK(!coalitions.sellers.empty(), "pricing requires sellers");
  PEM_CHECK(!coalitions.buyers.empty(), "pricing requires buyers");

  PricingResult result;
  const size_t hb = SelectAgent(ctx, parties, coalitions.buyers);
  result.hb_buyer_index = hb;
  Party& buyer_hb = parties[hb];
  AnnounceKey(ctx, buyer_hb);

  // Lines 2-7: ring-aggregate Σ k_i, then Σ (g_i + 1 + ε_i b_i − b_i),
  // over the seller coalition.  Both sums run under the same key and
  // ring, Σ k_i first: the order of their randomness draws and frames
  // is part of the pinned transcript
  // (TranscriptParity.PinnedGeneralMarketDigest).
  const RingCiphertext sum_k = RingAggregate(
      ctx, buyer_hb.public_key(), parties, coalitions.sellers,
      [](const Party& p) { return p.PreferenceRaw(); }, buyer_hb.id());
  const RingCiphertext sum_supply = RingAggregate(
      ctx, buyer_hb.public_key(), parties, coalitions.sellers,
      [](const Party& p) { return p.SupplyTermRaw(); }, buyer_hb.id());
  const int64_t sum_k_raw = OwnerDecryptSigned(ctx, buyer_hb, sum_k);
  const int64_t sum_supply_raw = OwnerDecryptSigned(ctx, buyer_hb, sum_supply);

  // Lines 8-9: Hb derives p̂ and clamps to [pl, ph].
  result.sums.sum_k = FixedPoint::FromRaw(sum_k_raw).ToDouble();
  result.sums.sum_supply = FixedPoint::FromRaw(sum_supply_raw).ToDouble();
  const market::PriceSolution sol =
      market::SolvePriceFromSums(result.sums, ctx.config.market);
  result.price = sol.price;
  result.interior_price = sol.interior_price;

  net::ByteWriter w;
  w.F64(result.price);
  ctx.ep(buyer_hb.id()).Send(net::kBroadcast, kMsgPrice, w.Take());
  for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
    if (a == buyer_hb.id()) continue;
    net::Message m = ExpectMessage(ctx.ep(a), kMsgPrice);
    net::ByteReader r(m.payload);
    PEM_CHECK(r.F64() == result.price, "price broadcast mismatch");
  }
  return result;
}

}  // namespace pem::protocol
