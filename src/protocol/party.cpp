#include "protocol/party.h"

#include "util/error.h"

namespace pem::protocol {

void Party::BeginWindow(const grid::WindowState& state, int64_t nonce_bound,
                        crypto::Rng& rng) {
  state_ = state;
  net_raw_ = FixedPoint::FromDouble(state.NetEnergy()).raw();
  // An inactive party sits out the market but still consumes its nonce
  // draw below: the RNG schedule every other agent derives from must
  // not depend on the roster.
  role_ = active_ ? grid::ClassifyRole(static_cast<double>(net_raw_), 0.0)
                  : grid::Role::kOffMarket;
  PEM_CHECK(nonce_bound > 0, "nonce bound must be positive");
  nonce_ = static_cast<int64_t>(
      crypto::BigInt::RandomBelow(crypto::BigInt(nonce_bound), rng).ToInt64());
}

int64_t Party::PreferenceRaw() const {
  return FixedPoint::FromDouble(params_.preference_k).raw();
}

int64_t Party::SupplyTermRaw() const {
  const double term = state_.generation_kwh + 1.0 +
                      params_.battery_epsilon * state_.battery_kwh -
                      state_.battery_kwh;
  return FixedPoint::FromDouble(term).raw();
}

const crypto::PaillierPublicKey& Party::EnsureKeys(int key_bits,
                                                   crypto::Rng& rng) {
  if (!private_key_.has_value() || public_key_->key_bits() != key_bits) {
    crypto::PaillierKeyPair kp = crypto::GeneratePaillierKeyPair(key_bits, rng);
    public_key_ = std::move(kp.pub);
    private_key_ = std::move(kp.priv);
  }
  return *public_key_;
}

void Party::LearnPublicKey(crypto::PaillierPublicKey pk) {
  public_key_ = std::move(pk);
  private_key_.reset();
}

const crypto::PaillierPublicKey& Party::public_key() const {
  PEM_CHECK(public_key_.has_value(), "party has no keys yet");
  return *public_key_;
}

const crypto::PaillierPrivateKey& Party::private_key() const {
  PEM_CHECK(private_key_.has_value(), "party holds no private key here");
  return *private_key_;
}

}  // namespace pem::protocol
