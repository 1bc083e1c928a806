// Deterministic pseudo-random generation for workloads and experiments.
//
// We implement xoshiro256** seeded via SplitMix64 rather than relying on
// std::mt19937 so that experiment streams are stable across standard-library
// implementations (distribution results of <random> are not portable).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace farm::util {

// --- Stable hashing ---------------------------------------------------------
// All sketch hashing routes through these two functions so estimates are
// bit-stable across platforms and standard-library versions (std::hash is
// not portable, and accuracy goldens diff exact estimates). stable_hash64
// is FNV-1a over the bytes finalized with the SplitMix64 mixer; derive_seed
// expands one master seed into independent per-row/per-shard stream seeds.
std::uint64_t stable_hash64(std::string_view bytes, std::uint64_t seed);
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Uniform over the full 64-bit range (xoshiro256**).
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  // Uniform over [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    FARM_CHECK(bound > 0);
    // Lemire's rejection method keeps the distribution exactly uniform: a
    // draw below threshold = 2^64 mod bound is redrawn. threshold < bound,
    // so a draw at or above bound is always kept and the division that
    // computes threshold is only paid for draws below bound.
    std::uint64_t r = next_u64();
    if (r < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (r < threshold) r = next_u64();
    }
    return r % bound;
  }
  // Uniform integer in the closed interval [lo, hi].
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);
  // Uniform double in [0, 1).
  double next_double();
  // Uniform double in [lo, hi).
  double next_double(double lo, double hi);
  // Bernoulli trial with probability p of returning true.
  bool next_bool(double p);
  // Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean);
  // Zipf-distributed rank in [1, n] with skew parameter s (> 0). Used to
  // generate realistic flow-size skew for heavy-hitter workloads.
  std::uint64_t next_zipf(std::uint64_t n, double s);
  // Samples an index proportionally to non-negative weights.
  std::size_t next_weighted(const std::vector<double>& weights);
  // Forks an independent stream; deterministic given this stream's state.
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace farm::util
