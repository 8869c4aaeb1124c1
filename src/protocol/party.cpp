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

const crypto::PaillierKeyPair& Party::EnsureKeys(int key_bits,
                                                 crypto::Rng& rng) {
  if (!keys_.has_value() || keys_->pub.key_bits() != key_bits) {
    keys_ = crypto::GeneratePaillierKeyPair(key_bits, rng);
  }
  return *keys_;
}

const crypto::PaillierPublicKey& Party::public_key() const {
  PEM_CHECK(keys_.has_value(), "party has no keys yet");
  return keys_->pub;
}

const crypto::PaillierPrivateKey& Party::private_key() const {
  PEM_CHECK(keys_.has_value(), "party has no keys yet");
  return keys_->priv;
}

}  // namespace pem::protocol
