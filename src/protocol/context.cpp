#include "protocol/context.h"

#include <string>

#include "util/error.h"
#include "util/parallel.h"

namespace pem::protocol {

Coalitions FormCoalitions(std::span<const Party> parties) {
  Coalitions c;
  for (size_t i = 0; i < parties.size(); ++i) {
    switch (parties[i].role()) {
      case grid::Role::kSeller: c.sellers.push_back(i); break;
      case grid::Role::kBuyer: c.buyers.push_back(i); break;
      case grid::Role::kOffMarket: break;
    }
  }
  return c;
}

size_t PickRandomIndex(std::span<const size_t> candidates, crypto::Rng& rng) {
  PEM_CHECK(!candidates.empty(), "cannot pick from empty candidate set");
  const crypto::BigInt bound(static_cast<int64_t>(candidates.size()));
  const int64_t i = crypto::BigInt::RandomBelow(bound, rng).ToInt64();
  return candidates[static_cast<size_t>(i)];
}

void WriteCiphertext(net::ByteWriter& w, const crypto::PaillierPublicKey& pk,
                     const crypto::PaillierCiphertext& ct) {
  w.Bytes(ct.value.ToBytesPadded(pk.ciphertext_bytes()));
}

crypto::PaillierCiphertext ReadCiphertext(net::ByteReader& r) {
  return crypto::PaillierCiphertext{crypto::BigInt::FromBytes(r.Bytes())};
}

// --- phase primitives -------------------------------------------------

EncryptionSlot PrepareEncryption(ProtocolContext& ctx,
                                 const crypto::PaillierPublicKey& pk,
                                 int64_t value) {
  EncryptionSlot slot;
  slot.value = value;
  if (ctx.pools != nullptr) {
    slot.pooled_factor = ctx.pools->PoolFor(pk).TakeFactor();
    if (slot.pooled_factor.has_value()) return slot;
  }
  slot.randomness = pk.SampleRandomness(ctx.rng);
  return slot;
}

crypto::PaillierOpening OpenSlot(const crypto::PaillierPublicKey& pk,
                                 const EncryptionSlot& slot) {
  crypto::PaillierOpening o;
  o.m = pk.EncodeSigned(slot.value);
  if (slot.pooled_factor.has_value()) {
    o.f = *slot.pooled_factor;
  } else {
    o.r = slot.randomness;
  }
  return o;
}

crypto::PaillierCiphertext ComputeEncryption(
    const crypto::PaillierPublicKey& pk, const EncryptionSlot& slot) {
  const crypto::BigInt m = pk.EncodeSigned(slot.value);
  if (slot.pooled_factor.has_value()) {
    return pk.EncryptWithFactor(m, *slot.pooled_factor);
  }
  return pk.EncryptWithRandomness(m, slot.randomness);
}

std::vector<crypto::PaillierCiphertext> ComputeEncryptions(
    const ProtocolContext& ctx, const crypto::PaillierPublicKey& pk,
    std::span<const EncryptionSlot> slots) {
  std::vector<crypto::PaillierCiphertext> out(slots.size());
  const auto compute = [&](size_t i) {
    if (slots[i].acts) out[i] = ComputeEncryption(pk, slots[i]);
  };
  ParallelFor(0, slots.size(), ctx.policy.worker_count(), compute);
  return out;
}

// --- ring aggregation -------------------------------------------------

net::Message ExpectMessage(net::Endpoint& ep, uint32_t expected_type) {
  std::optional<net::Message> m = ep.Receive();
  PEM_CHECK(m.has_value(), "protocol: expected a message");
  PEM_CHECK(m->type == expected_type, "protocol: unexpected message type");
  return std::move(*m);
}

FrameSource SourceOfFrame(const ProtocolContext& ctx, net::AgentId from,
                          net::AgentId to) {
  if (ctx.ep(from).acts()) return FrameSource::kSender;
  if (ctx.ep(to).acts()) return FrameSource::kOpening;
  return FrameSource::kNone;
}

void WriteRingCiphertext(net::ByteWriter& w, const ProtocolContext& ctx,
                         const crypto::PaillierPublicKey& pk,
                         net::AgentId from, net::AgentId to,
                         const RingCiphertext& c) {
  switch (SourceOfFrame(ctx, from, to)) {
    case FrameSource::kSender:
      WriteCiphertext(w, pk, c.ct);
      return;
    case FrameSource::kOpening:
      WriteCiphertext(w, pk, pk.EncryptOpening(c.opening));
      return;
    case FrameSource::kNone:
      w.Bytes(std::vector<uint8_t>(pk.ciphertext_bytes()));
      return;
  }
}

crypto::BigInt OwnerDecrypt(const ProtocolContext& ctx, const Party& owner,
                            const crypto::PaillierCiphertext& ct,
                            const crypto::BigInt& opened) {
  if (!ctx.ep(owner.id()).acts()) return opened;
  crypto::BigInt m = owner.private_key().Decrypt(ct);
  PEM_CHECK(m == opened, "decryption disagrees with the replica's opening");
  return m;
}

int64_t OwnerDecryptSigned(const ProtocolContext& ctx, const Party& owner,
                           const RingCiphertext& c) {
  return owner.public_key().DecodeSigned(
      OwnerDecrypt(ctx, owner, c.ct, c.opening.m));
}

namespace {

// Phase 3: the sequential ring-multiply/forward pass over the members'
// shares.  Every process carries the running opening; only a process
// acting for a member multiplies that member's ciphertext in.
RingCiphertext ForwardRing(ProtocolContext& ctx,
                           const crypto::PaillierPublicKey& pk,
                           std::span<Party> parties,
                           std::span<const size_t> ring,
                           std::span<const RingCiphertext> shares,
                           net::AgentId final_recipient) {
  RingCiphertext running;
  for (size_t pos = 0; pos < ring.size(); ++pos) {
    Party& member = parties[ring[pos]];
    // Each member multiplies its (pre-encrypted) contribution in.
    const RingCiphertext& mine = shares[pos];
    if (pos == 0) {
      running = mine;
    } else {
      running.opening = pk.AddOpenings(running.opening, mine.opening);
      if (ctx.ep(member.id()).acts()) running.ct = pk.Add(running.ct, mine.ct);
    }

    const bool last = pos + 1 == ring.size();
    const net::AgentId next =
        last ? final_recipient : parties[ring[pos + 1]].id();
    if (member.id() == next) continue;  // the recipient already holds it
    net::ByteWriter w;
    WriteRingCiphertext(w, ctx, pk, member.id(), next, running);
    ctx.ep(member.id()).Send(next, last ? kMsgRingFinal : kMsgRingHop,
                             w.Take());
    if (!last) {
      // The next member pops the hop message before adding its own
      // share (sequential execution of the ring).
      net::Message m = ExpectMessage(ctx.ep(next), kMsgRingHop);
      net::ByteReader r(m.payload);
      running.ct = ReadCiphertext(r);
    }
  }
  // Deliver to the final recipient's inbox (unless it was the last ring
  // member itself).
  const net::AgentId last_member = parties[ring.back()].id();
  if (last_member != final_recipient) {
    net::Message m = ExpectMessage(ctx.ep(final_recipient), kMsgRingFinal);
    net::ByteReader r(m.payload);
    running.ct = ReadCiphertext(r);
  }
  return running;
}

}  // namespace

RingCiphertext RingAggregate(
    ProtocolContext& ctx, const crypto::PaillierPublicKey& pk,
    std::span<Party> parties, std::span<const size_t> ring,
    const std::function<int64_t(const Party&)>& value_of,
    net::AgentId final_recipient) {
  PEM_CHECK(!ring.empty(), "ring aggregation needs at least one member");

  // Phase 1 (prepare, sequential): fix every member encryption's
  // randomness in ring order, so the transcript does not depend on how
  // phase 2 is scheduled.
  std::vector<EncryptionSlot> slots;
  slots.reserve(ring.size());
  for (size_t member : ring) {
    slots.push_back(PrepareEncryption(ctx, pk, value_of(parties[member])));
    slots.back().acts = ctx.ep(parties[member].id()).acts();
  }

  // Phase 2 (compute, policy-driven): the dominant crypto cost — one
  // h_s^r exponentiation per slot this process acts for — fans out
  // across workers.
  const std::vector<crypto::PaillierCiphertext> cts =
      ComputeEncryptions(ctx, pk, slots);
  std::vector<RingCiphertext> shares(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    shares[i] = RingCiphertext{cts[i], OpenSlot(pk, slots[i])};
  }

  // Phase 3 (forward, sequential).
  return ForwardRing(ctx, pk, parties, ring, shares, final_recipient);
}

namespace {

// The peer whose copy of `owner`'s announcement the equivocation cheat
// doctors this window (the last one), or -1 when the owner is honest.
net::AgentId EquivocationTarget(const ProtocolContext& ctx,
                                const Party& owner) {
  if (!ctx.config.cheat.ActiveFor(owner.id(), ctx.window) ||
      ctx.config.cheat.cheat != CheatClass::kKeyEquivocation) {
    return -1;
  }
  net::AgentId last = -1;
  for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
    if (a != owner.id()) last = a;
  }
  return last;
}

// The doctored key: the modulus with bit 1 of its last byte flipped
// (the same byte width, so per-copy wire bytes match the broadcast
// exactly).  Doctoring twice gives the key back.
crypto::PaillierPublicKey Doctored(const crypto::PaillierPublicKey& pk) {
  std::vector<uint8_t> n_bytes = pk.n().ToBytes();
  n_bytes.back() ^= 2;
  return crypto::PaillierPublicKey(crypto::BigInt::FromBytes(n_bytes),
                                   pk.key_bits());
}

[[noreturn]] void ThrowBadAnnouncement(const ProtocolContext& ctx,
                                       const Party& owner,
                                       const std::string& why) {
  throw ProtocolError(ProtocolFault{owner.id(), CheatClass::kKeyEquivocation,
                                    ctx.window, why});
}

// `owner`'s public key as a process that does not act for it learns it:
// from the announcement copy of the first peer it acts for (a forked
// child's own agent), or of the first peer when it acts for none.
crypto::PaillierPublicKey LearnAnnouncedKey(ProtocolContext& ctx,
                                            const Party& owner) {
  net::AgentId reader = -1;
  for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
    if (a == owner.id()) continue;
    if (reader < 0) reader = a;
    if (ctx.ep(a).acts()) {
      reader = a;
      break;
    }
  }
  PEM_CHECK(reader >= 0, "key announcement: the owner has no peer");
  const std::optional<net::Message> copy = ctx.ep(reader).Peek(owner.id());
  PEM_CHECK(copy.has_value(),
            "key announcement: this transport cannot show the owner's key");
  if (copy->type != kMsgPublicKey) {
    ThrowBadAnnouncement(ctx, owner,
                         "the owner's next frame is not its key announcement");
  }
  pem::Result<crypto::PaillierPublicKey> pk =
      crypto::PaillierPublicKey::Deserialize(copy->payload);
  if (!pk.ok()) ThrowBadAnnouncement(ctx, owner, pk.error().message());
  if (pk.value().key_bits() != ctx.config.key_bits) {
    ThrowBadAnnouncement(ctx, owner,
                         "announced a " +
                             std::to_string(pk.value().key_bits()) +
                             "-bit key where the community uses " +
                             std::to_string(ctx.config.key_bits) + " bits");
  }
  if (reader == EquivocationTarget(ctx, owner)) return Doctored(pk.value());
  return std::move(pk.value());
}

}  // namespace

void BroadcastPublicKey(ProtocolContext& ctx, const Party& owner) {
  // The key this process holds for the owner: its own pair in the
  // owner's process, the learned key elsewhere.
  const std::vector<uint8_t> held = owner.public_key().Serialize();
  const net::AgentId target = EquivocationTarget(ctx, owner);
  if (target < 0) {
    ctx.ep(owner.id()).Send(net::kBroadcast, kMsgPublicKey, held);
  } else {
    // Equivocation cheat: the announcer unicasts instead of
    // broadcasting and hands the target a doctored modulus, so the
    // traffic ledger cannot tell the paths apart.
    const std::vector<uint8_t> forged =
        Doctored(owner.public_key()).Serialize();
    for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
      if (a == owner.id()) continue;
      ctx.ep(owner.id()).Send(a, kMsgPublicKey, a == target ? forged : held);
    }
  }
  // Peers drain the announcement.  A copy that differs from the held
  // key, undecodable ones included, is equivocation by the announcer.
  for (net::AgentId a = 0; a < ctx.num_agents(); ++a) {
    if (a == owner.id()) continue;
    if (ExpectMessage(ctx.ep(a), kMsgPublicKey).payload != held) {
      ThrowBadAnnouncement(ctx, owner,
                           "announced a different public key to agent " +
                               std::to_string(a));
    }
  }
}

void AnnounceKey(ProtocolContext& ctx, Party& owner) {
  const int bits = ctx.config.key_bits;
  if (ctx.ep(owner.id()).acts()) {
    owner.EnsureKeys(bits, ctx.rng);
  } else if (!owner.HasKeys() || owner.public_key().key_bits() != bits) {
    (void)crypto::DrawPaillierPrimeCandidates(bits, ctx.rng);
    owner.LearnPublicKey(LearnAnnouncedKey(ctx, owner));
  }
  BroadcastPublicKey(ctx, owner);
}

}  // namespace pem::protocol
