#include "protocol/distribution.h"

#include <cmath>

#include "protocol/coin_flip.h"
#include "util/error.h"
#include "util/fixed_point.h"
#include "util/parallel.h"

namespace pem::protocol {
namespace {

// Shared core of both market cases.
//
// ratio_members: the coalition whose shares define the allocation
// ratios (buyers in the general market, sellers in the extreme one).
// The aggregator is drawn from the counterpart coalition.  Returns the
// per-member ratios share_m / total, indexed like ratio_members.
std::vector<double> ComputeRatios(ProtocolContext& ctx,
                                  std::span<Party> parties,
                                  std::span<const size_t> ratio_members,
                                  std::span<const size_t> counterpart,
                                  size_t aggregator_index) {
  Party& aggregator = parties[aggregator_index];
  aggregator.EnsureKeys(ctx.config.key_bits, ctx.rng);
  BroadcastPublicKey(ctx, aggregator);
  const crypto::PaillierPublicKey& pk = aggregator.public_key();

  // Lines 3-5: ring-aggregate the encrypted coalition total (shaped by
  // the configured aggregation topology); the last member broadcasts
  // it within the coalition.  Each member keeps its own copy: the
  // ring's result for the last member, the broadcast for the others.
  auto share_of = [](const Party& p) { return std::abs(p.net_raw()); };
  const net::AgentId last = parties[ratio_members.back()].id();
  const RingCiphertext enc_total =
      RingAggregate(ctx, pk, parties, PlanRingTopology(ctx, ratio_members),
                    share_of, last);
  std::vector<crypto::PaillierCiphertext> totals(ratio_members.size());
  for (size_t i = 0; i < ratio_members.size(); ++i) {
    const net::AgentId member = parties[ratio_members[i]].id();
    if (member == last) {
      totals[i] = enc_total.ct;
      continue;
    }
    net::ByteWriter w;
    WriteRingCiphertext(w, ctx, pk, last, member, enc_total);
    ctx.ep(last).Send(member, kMsgEncTotal, w.Take());
    const net::Message m = ExpectMessage(ctx.ep(member), kMsgEncTotal);
    net::ByteReader r(m.payload);
    totals[i] = ReadCiphertext(r);
  }

  // Lines 6-7: each member sends Enc(total * K / share) to the
  // aggregator.  K/share is rounded to an integer scalar; the scale K
  // keeps the relative rounding error below ~1e-5 (bench/
  // ablation_ratio_scale measures it).
  // Phased like the ring aggregations: the scalars and rerandomization
  // randomness are fixed sequentially, the per-member exponentiations
  // (ScalarMul + rerandomize — each member's dominant cost) fan out
  // across compute workers, and the sends stay sequential so the
  // transcript is policy-invariant.
  const int64_t big_k = ctx.config.ratio_scale;
  std::vector<crypto::BigInt> scalars;
  std::vector<EncryptionSlot> rerand_slots;
  scalars.reserve(ratio_members.size());
  rerand_slots.reserve(ratio_members.size());
  for (size_t m : ratio_members) {
    const int64_t share = share_of(parties[m]);
    PEM_CHECK(share > 0, "coalition member with zero share");
    scalars.emplace_back(RoundDiv(big_k, share));
    // Rerandomization is an Enc(0) multiplied in; planning it as a
    // regular encryption slot lets it draw from the idle-time
    // randomness pool like every ring encryption does.
    rerand_slots.push_back(PrepareEncryption(ctx, pk, 0));
  }
  // Every process knows each ratio's plaintext; the ciphertext is
  // computed by the member's process, and its opening only where the
  // aggregator's process must rebuild the frame.
  std::vector<RingCiphertext> ratio_cts(ratio_members.size());
  const auto compute_ratio = [&](size_t i) {
    RingCiphertext& out = ratio_cts[i];
    out.opening.m = enc_total.opening.m.MulMod(scalars[i], pk.n());
    switch (SourceOfFrame(ctx, parties[ratio_members[i]].id(),
                          aggregator.id())) {
      case FrameSource::kSender:
        // Enc(0) hides the scalar from the wire; one fan-out
        // covers both exponentiations per member.
        out.ct = pk.Add(pk.ScalarMul(totals[i], scalars[i]),
                        ComputeEncryption(pk, rerand_slots[i]));
        break;
      case FrameSource::kOpening:
        out.opening =
            pk.AddOpenings(pk.ScaleOpening(enc_total.opening, scalars[i]),
                           OpenSlot(pk, rerand_slots[i]));
        break;
      case FrameSource::kNone:
        break;
    }
  };
  ParallelFor(0, ratio_members.size(), ctx.policy.worker_count(),
              compute_ratio);
  for (size_t i = 0; i < ratio_members.size(); ++i) {
    const size_t m = ratio_members[i];
    net::ByteWriter w;
    w.U32(static_cast<uint32_t>(m));
    w.I64(big_k);
    WriteRingCiphertext(w, ctx, pk, parties[m].id(), aggregator.id(),
                        ratio_cts[i]);
    ctx.ep(parties[m].id()).Send(aggregator.id(), kMsgRatioCipher, w.Take());
  }

  // Line 8: the aggregator decrypts each total/share ratio.  The
  // decrypted value total_raw * K / share_raw can exceed 2^63, so it is
  // read as a BigInt and converted to double.
  std::vector<double> ratios(ratio_members.size(), 0.0);
  for (size_t i = 0; i < ratio_members.size(); ++i) {
    net::Message msg = ExpectMessage(ctx.ep(aggregator.id()), kMsgRatioCipher);
    net::ByteReader r(msg.payload);
    const uint32_t member_index = r.U32();
    const int64_t k_received = r.I64();
    const crypto::PaillierCiphertext ct = ReadCiphertext(r);
    // Map back to the ratio_members slot.
    size_t j = 0;
    while (j < ratio_members.size() && ratio_members[j] != member_index) ++j;
    PEM_CHECK(j < ratio_members.size(),
              "ratio message from unknown coalition member");
    const double v =
        OwnerDecrypt(ctx, aggregator, ct, ratio_cts[j].opening.m).ToDouble();
    PEM_CHECK(v > 0.0, "ratio ciphertext decrypted to non-positive value");
    ratios[j] = static_cast<double>(k_received) / v;  // share/total
  }

  // Broadcast the ratio vector within the counterpart coalition (the
  // coalition that computes the pairwise amounts from it).
  net::ByteWriter w;
  w.U32(static_cast<uint32_t>(ratios.size()));
  for (size_t j = 0; j < ratios.size(); ++j) {
    w.U32(static_cast<uint32_t>(ratio_members[j]));
    w.F64(ratios[j]);
  }
  const std::vector<uint8_t> payload = w.Take();
  for (size_t c : counterpart) {
    if (c == aggregator_index) continue;
    ctx.ep(parties[aggregator_index].id())
        .Send(parties[c].id(), kMsgRatioBroadcast, payload);
    (void)ExpectMessage(ctx.ep(parties[c].id()), kMsgRatioBroadcast);
  }
  return ratios;
}

}  // namespace

DistributionResult RunPrivateDistribution(ProtocolContext& ctx,
                                          std::span<Party> parties,
                                          const Coalitions& coalitions,
                                          bool general_market, double price) {
  PEM_CHECK(!coalitions.sellers.empty() && !coalitions.buyers.empty(),
            "distribution requires both coalitions");
  PEM_CHECK(price > 0.0, "price must be positive");

  DistributionResult result;
  if (general_market) {
    // Demand ratios |sn_j| / E_b, revealed only to the seller coalition.
    const size_t hs = SelectAgent(ctx, parties, coalitions.sellers);
    result.aggregator_index = hs;
    const std::vector<double> ratios = ComputeRatios(
        ctx, parties, coalitions.buyers, coalitions.sellers, hs);

    // Lines 9-13: every seller routes e_ij = ratio_j * sn_i to every
    // buyer; the buyer pays m_ji = p * e_ij.
    for (size_t si : coalitions.sellers) {
      const double sn_i = parties[si].net_kwh();
      for (size_t j = 0; j < coalitions.buyers.size(); ++j) {
        const size_t bj = coalitions.buyers[j];
        const double e_ij = ratios[j] * sn_i;
        net::ByteWriter we;
        we.U32(static_cast<uint32_t>(si));
        we.F64(e_ij);
        ctx.ep(parties[si].id())
            .Send(parties[bj].id(), kMsgEnergyTransfer, we.Take());
        (void)ExpectMessage(ctx.ep(parties[bj].id()), kMsgEnergyTransfer);

        const double m_ji = price * e_ij;
        net::ByteWriter wp;
        wp.U32(static_cast<uint32_t>(bj));
        wp.F64(m_ji);
        ctx.ep(parties[bj].id()).Send(parties[si].id(), kMsgPayment,
                                      wp.Take());
        (void)ExpectMessage(ctx.ep(parties[si].id()), kMsgPayment);

        result.trades.push_back(Trade{si, bj, e_ij, m_ji});
      }
    }
  } else {
    // Extreme market: supply ratios sn_i / E_s, revealed only to the
    // buyer coalition; buyers compute e_ij and pay, sellers route.
    const size_t hb = SelectAgent(ctx, parties, coalitions.buyers);
    result.aggregator_index = hb;
    const std::vector<double> ratios = ComputeRatios(
        ctx, parties, coalitions.sellers, coalitions.buyers, hb);

    for (size_t bj : coalitions.buyers) {
      const double demand_j = -parties[bj].net_kwh();
      for (size_t i = 0; i < coalitions.sellers.size(); ++i) {
        const size_t si = coalitions.sellers[i];
        const double e_ij = ratios[i] * demand_j;
        const double m_ji = price * e_ij;
        net::ByteWriter wp;
        wp.U32(static_cast<uint32_t>(bj));
        wp.F64(m_ji);
        ctx.ep(parties[bj].id()).Send(parties[si].id(), kMsgPayment,
                                      wp.Take());
        (void)ExpectMessage(ctx.ep(parties[si].id()), kMsgPayment);

        net::ByteWriter we;
        we.U32(static_cast<uint32_t>(si));
        we.F64(e_ij);
        ctx.ep(parties[si].id())
            .Send(parties[bj].id(), kMsgEnergyTransfer, we.Take());
        (void)ExpectMessage(ctx.ep(parties[bj].id()), kMsgEnergyTransfer);

        result.trades.push_back(Trade{si, bj, e_ij, m_ji});
      }
    }
  }
  return result;
}

}  // namespace pem::protocol
