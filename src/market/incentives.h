// Incentive measurement functions (paper §III-A).
#pragma once

namespace pem::market {

// Seller utility (Eq. 4):
//   U_i = k_i * log(1 + l_i + eps_i * b_i) + p * (g_i - l_i - b_i)
double SellerUtility(double k, double load, double epsilon, double battery,
                     double price, double generation);

// Buyer cost (Eq. 5):
//   C_j = p * x_j + ps * (l_j + b_j - g_j - x_j)
// where x_j is the amount bought from the trading market.
double BuyerCost(double price, double market_purchase, double retail_price,
                 double load, double battery, double generation);

// Seller's best-response load profile at price p:
//   l* = k / p - 1 - eps * b
// Clamped at 0 (a load cannot be negative; the clamp only binds for
// tiny k or huge p, outside the paper's operating range).
//
// Erratum note: the paper prints l* = k*eps/p - 1 - eps*b (Eq. 15),
// but that contradicts Eq. 4 (whose derivative in l is k/(1+l+eps*b),
// with no eps factor) and Eq. 13 (whose price is derived from Σ k_i,
// not Σ k_i*eps_i).  Dropping the spurious eps makes Eqs. 4, 13 and 15
// mutually consistent.
double OptimalSellerLoad(double k, double epsilon, double price,
                         double battery);

// Interior (unclamped) best response.  Lemma 1's convexity and
// uniqueness statements assume the interior optimum; the property
// tests use this variant.
double OptimalSellerLoadInterior(double k, double epsilon, double price,
                                 double battery);

}  // namespace pem::market
