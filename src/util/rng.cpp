#include "util/rng.h"

#include <cmath>

namespace farm::util {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t stable_hash64(std::string_view bytes, std::uint64_t seed) {
  // FNV-1a with the seed folded into the offset basis, finalized with the
  // SplitMix64 mixer for avalanche on short keys.
  std::uint64_t h = 1469598103934665603ull ^ (seed * 0x9E3779B97F4A7C15ull);
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return splitmix64(h);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) {
  std::uint64_t x = master ^ ((stream + 1) * 0xBF58476D1CE4E5B9ull);
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  FARM_CHECK(lo <= hi);
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) { return next_double() < p; }

double Rng::next_exponential(double mean) {
  FARM_CHECK(mean > 0);
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return -mean * std::log(u);
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  FARM_CHECK(n > 0 && s > 0);
  // Rejection-inversion sampling (Hörmann & Derflinger) is overkill for the
  // sizes used in workloads; straightforward inverse-CDF over the harmonic
  // weights is exact and fast enough for n up to ~1e5.
  double h = 0;
  for (std::uint64_t k = 1; k <= n; ++k) h += 1.0 / std::pow(double(k), s);
  double u = next_double() * h, acc = 0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(double(k), s);
    if (acc >= u) return k;
  }
  return n;
}

std::size_t Rng::next_weighted(const std::vector<double>& weights) {
  FARM_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    FARM_CHECK(w >= 0);
    total += w;
  }
  FARM_CHECK(total > 0);
  double u = next_double() * total, acc = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (acc >= u) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace farm::util
