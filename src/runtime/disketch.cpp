#include "runtime/disketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "util/check.h"
#include "util/rng.h"

namespace farm::runtime::disketch {

namespace {

// The key→shard hash of misra-gries fragments uses its own derived stream
// so it stays independent of the count-min row hashes.
constexpr std::uint64_t kShardStream = 0x4D47;  // 'MG'

int per_shard_capacity(const SketchSpec& spec) {
  return std::max(1, spec.capacity / spec.shards);
}

// --- Wire encoding (explicit little-endian, platform-independent) ------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}
  std::uint8_t u8() {
    FARM_CHECK_MSG(pos_ + 1 <= bytes_.size(), "truncated fragment state");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{u8()} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{u8()} << (8 * i);
    return v;
  }
  std::string str(std::size_t n) {
    FARM_CHECK_MSG(pos_ + n <= bytes_.size(), "truncated fragment state");
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

Fragment::Fragment(const SketchSpec& spec, int index, int count)
    : spec_(spec), count_(count) {
  FARM_CHECK_MSG(spec.validate().empty(), "invalid sketch spec");
  FARM_CHECK(count > 0 && index >= 0 && index < count);
  owned_.assign(static_cast<std::size_t>(count), false);
  owned_[static_cast<std::size_t>(index)] = true;
  switch (spec_.kind) {
    case SketchKind::kCountMin:
      for (int r = 0; r < spec_.depth; ++r)
        row_seeds_.push_back(
            util::derive_seed(spec_.hash_seed, static_cast<std::uint64_t>(r)));
      cms_.assign(static_cast<std::size_t>(spec_.width) *
                      static_cast<std::size_t>(spec_.depth),
                  0);
      break;
    case SketchKind::kHyperLogLog:
      hll_.assign(std::size_t{1} << spec_.precision, 0);
      break;
    case SketchKind::kMisraGries:
      shard_seed_ = util::derive_seed(spec_.hash_seed, kShardStream);
      mg_.assign(static_cast<std::size_t>(spec_.shards),
                 net::MisraGries(per_shard_capacity(spec_)));
      break;
  }
}

void Fragment::add(std::string_view key, std::uint64_t count) {
  items_ += count;
  switch (spec_.kind) {
    case SketchKind::kCountMin:
      // Plain (linear) update — the only count-min form whose cells form a
      // monoid, i.e. fold(fragments) == monolithic.
      for (int r = 0; r < spec_.depth; ++r) {
        std::size_t col =
            util::stable_hash64(key, row_seeds_[static_cast<std::size_t>(r)]) %
            static_cast<std::uint64_t>(spec_.width);
        if (owns_slice(col))
          cms_[static_cast<std::size_t>(r) *
                   static_cast<std::size_t>(spec_.width) +
               col] += count;
      }
      break;
    case SketchKind::kHyperLogLog: {
      std::uint64_t h =
          util::stable_hash64(key, util::derive_seed(spec_.hash_seed, 0));
      std::size_t idx = h >> (64 - spec_.precision);
      if (!owns_slice(idx)) break;
      std::uint64_t rest = h << spec_.precision;
      int rank = rest == 0 ? (64 - spec_.precision + 1)
                           : std::countl_zero(rest) + 1;
      hll_[idx] = std::max(hll_[idx], static_cast<std::uint8_t>(rank));
      break;
    }
    case SketchKind::kMisraGries: {
      std::size_t shard = util::stable_hash64(key, shard_seed_) %
                          static_cast<std::uint64_t>(spec_.shards);
      if (owns_slice(shard)) mg_[shard].add(key, count);
      break;
    }
  }
}

void Fragment::clear() {
  items_ = 0;
  std::fill(cms_.begin(), cms_.end(), 0);
  std::fill(hll_.begin(), hll_.end(), 0);
  for (auto& shard : mg_) shard.clear();
}

void Fragment::merge(const Fragment& other) {
  FARM_CHECK_MSG(spec_ == other.spec_,
                 "merging fragments of different logical sketches");
  FARM_CHECK_MSG(count_ == other.count_,
                 "merging fragments with different fragment counts");
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    FARM_CHECK_MSG(!(owned_[i] && other.owned_[i]),
                   "merging fragments with overlapping slices");
    if (other.owned_[i]) owned_[i] = true;
  }
  switch (spec_.kind) {
    case SketchKind::kCountMin:
      for (std::size_t i = 0; i < cms_.size(); ++i) cms_[i] += other.cms_[i];
      break;
    case SketchKind::kHyperLogLog:
      for (std::size_t i = 0; i < hll_.size(); ++i)
        hll_[i] = std::max(hll_[i], other.hll_[i]);
      break;
    case SketchKind::kMisraGries:
      for (std::size_t s = 0; s < mg_.size(); ++s)
        if (other.owned_[s % other.owned_.size()]) mg_[s].merge(other.mg_[s]);
      break;
  }
  // Every fragment observes the whole stream, so the max — not the sum —
  // is the stream size; max keeps partial folds associative.
  items_ = std::max(items_, other.items_);
}

bool Fragment::complete() const {
  return std::all_of(owned_.begin(), owned_.end(), [](bool b) { return b; });
}

std::string Fragment::serialize() const {
  std::string out = "DSK1";
  put_u8(out, static_cast<std::uint8_t>(spec_.kind));
  put_u32(out, static_cast<std::uint32_t>(spec_.width));
  put_u32(out, static_cast<std::uint32_t>(spec_.depth));
  put_u32(out, static_cast<std::uint32_t>(spec_.capacity));
  put_u32(out, static_cast<std::uint32_t>(spec_.shards));
  put_u32(out, static_cast<std::uint32_t>(spec_.precision));
  put_u64(out, spec_.hash_seed);
  // Canonical form: a complete state is fragment 0-of-1, so a fold at any
  // fragment count serializes byte-identically to the monolithic sketch.
  if (complete()) {
    put_u32(out, 1);
    put_u8(out, 1);
  } else {
    put_u32(out, static_cast<std::uint32_t>(count_));
    for (bool b : owned_) put_u8(out, b ? 1 : 0);
  }
  put_u64(out, items_);
  switch (spec_.kind) {
    case SketchKind::kCountMin:
      for (std::uint64_t c : cms_) put_u64(out, c);
      break;
    case SketchKind::kHyperLogLog:
      for (std::uint8_t r : hll_) put_u8(out, r);
      break;
    case SketchKind::kMisraGries:
      for (const auto& shard : mg_) {
        put_u64(out, shard.total_added());
        put_u64(out, shard.decremented());
        put_u32(out, static_cast<std::uint32_t>(shard.size()));
        for (const auto& [k, c] : shard.counters()) {
          put_u32(out, static_cast<std::uint32_t>(k.size()));
          out += k;
          put_u64(out, c);
        }
      }
      break;
  }
  return out;
}

Fragment Fragment::deserialize(std::string_view bytes) {
  Reader in(bytes);
  FARM_CHECK_MSG(in.str(4) == "DSK1", "bad fragment state magic");
  SketchSpec spec;
  spec.kind = static_cast<SketchKind>(in.u8());
  spec.width = static_cast<int>(in.u32());
  spec.depth = static_cast<int>(in.u32());
  spec.capacity = static_cast<int>(in.u32());
  spec.shards = static_cast<int>(in.u32());
  spec.precision = static_cast<int>(in.u32());
  spec.hash_seed = in.u64();
  int count = static_cast<int>(in.u32());
  FARM_CHECK(count > 0);
  std::vector<bool> owned(static_cast<std::size_t>(count));
  for (auto&& b : owned) b = in.u8() != 0;
  Fragment f(spec, 0, count);
  f.owned_ = std::move(owned);
  f.items_ = in.u64();
  switch (spec.kind) {
    case SketchKind::kCountMin:
      for (auto& c : f.cms_) c = in.u64();
      break;
    case SketchKind::kHyperLogLog:
      for (auto& r : f.hll_) r = in.u8();
      break;
    case SketchKind::kMisraGries:
      for (auto& shard : f.mg_) {
        std::uint64_t total = in.u64();
        std::uint64_t dec = in.u64();
        std::uint32_t n = in.u32();
        std::map<std::string, std::uint64_t> counters;
        for (std::uint32_t i = 0; i < n; ++i) {
          std::string k = in.str(in.u32());
          counters[std::move(k)] = in.u64();
        }
        shard = net::MisraGries::restore(per_shard_capacity(spec), total, dec,
                                         std::move(counters));
      }
      break;
  }
  FARM_CHECK_MSG(in.done(), "trailing bytes in fragment state");
  return f;
}

std::uint64_t Fragment::estimate(std::string_view key) const {
  switch (spec_.kind) {
    case SketchKind::kCountMin: {
      std::uint64_t best = ~0ull;
      for (int r = 0; r < spec_.depth; ++r) {
        std::size_t col =
            util::stable_hash64(key, row_seeds_[static_cast<std::size_t>(r)]) %
            static_cast<std::uint64_t>(spec_.width);
        best = std::min(best, cms_[static_cast<std::size_t>(r) *
                                       static_cast<std::size_t>(spec_.width) +
                                   col]);
      }
      return best;
    }
    case SketchKind::kMisraGries: {
      std::size_t shard = util::stable_hash64(key, shard_seed_) %
                          static_cast<std::uint64_t>(spec_.shards);
      return mg_[shard].estimate(key);
    }
    case SketchKind::kHyperLogLog:
      return 0;  // point queries are meaningless for a cardinality sketch
  }
  return 0;
}

double Fragment::cardinality() const {
  FARM_CHECK(spec_.kind == SketchKind::kHyperLogLog);
  return net::HyperLogLog::estimate_registers(hll_.data(), hll_.size());
}

std::vector<std::pair<std::string, std::uint64_t>> Fragment::heavy_hitters(
    std::uint64_t min_count) const {
  FARM_CHECK(spec_.kind == SketchKind::kMisraGries);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& shard : mg_)
    for (const auto& [k, c] : shard.counters())
      if (c >= min_count) out.emplace_back(k, c);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Fragment::shard_decrement(std::string_view key) const {
  FARM_CHECK(spec_.kind == SketchKind::kMisraGries);
  std::size_t shard = util::stable_hash64(key, shard_seed_) %
                      static_cast<std::uint64_t>(spec_.shards);
  return mg_[shard].decremented();
}

std::size_t Fragment::owned_cells() const {
  auto owned_of = [&](std::size_t slices) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < slices; ++i)
      if (owns_slice(i)) ++n;
    return n;
  };
  switch (spec_.kind) {
    case SketchKind::kCountMin:
      return owned_of(static_cast<std::size_t>(spec_.width)) *
             static_cast<std::size_t>(spec_.depth);
    case SketchKind::kHyperLogLog:
      return owned_of(std::size_t{1} << spec_.precision);
    case SketchKind::kMisraGries:
      return owned_of(static_cast<std::size_t>(spec_.shards)) *
             static_cast<std::size_t>(per_shard_capacity(spec_));
  }
  return 0;
}

std::optional<Fragment> EpochFold::offer(std::int64_t epoch,
                                         const Fragment& frag) {
  auto it = partial_.find(epoch);
  if (it == partial_.end()) {
    if (frag.complete()) {
      ++completed_;
      return frag;
    }
    partial_.emplace(epoch, frag);
    return std::nullopt;
  }
  it->second.merge(frag);
  if (!it->second.complete()) return std::nullopt;
  Fragment merged = std::move(it->second);
  partial_.erase(it);
  ++completed_;
  return merged;
}

int min_fragments(const SketchSpec& spec, std::size_t cells_per_switch) {
  if (cells_per_switch == 0) return 0;
  std::size_t slices = 0;
  switch (spec.kind) {
    case SketchKind::kCountMin:
      slices = static_cast<std::size_t>(spec.width);
      break;
    case SketchKind::kHyperLogLog:
      slices = std::size_t{1} << spec.precision;
      break;
    case SketchKind::kMisraGries:
      slices = static_cast<std::size_t>(spec.shards);
      break;
  }
  for (int f = 1; static_cast<std::size_t>(f) <= slices; ++f)
    if (max_fragment_cells(spec, f) <= cells_per_switch) return f;
  return 0;  // even one slice per switch does not fit
}

std::size_t max_fragment_cells(const SketchSpec& spec, int fragments) {
  FARM_CHECK(fragments > 0);
  std::size_t f = static_cast<std::size_t>(fragments);
  auto ceil_div = [](std::size_t a, std::size_t b) { return (a + b - 1) / b; };
  switch (spec.kind) {
    case SketchKind::kCountMin:
      return ceil_div(static_cast<std::size_t>(spec.width), f) *
             static_cast<std::size_t>(spec.depth);
    case SketchKind::kHyperLogLog:
      return ceil_div(std::size_t{1} << spec.precision, f);
    case SketchKind::kMisraGries:
      return ceil_div(static_cast<std::size_t>(spec.shards), f) *
             static_cast<std::size_t>(per_shard_capacity(spec));
  }
  return 0;
}

// --- Accuracy harness --------------------------------------------------------

std::vector<std::string> SyntheticStream::hitters(
    std::uint64_t min_count) const {
  std::vector<std::string> out;
  for (const auto& [k, c] : truth)
    if (c >= min_count) out.push_back(k);
  return out;
}

SyntheticStream make_zipf_stream(std::uint64_t seed, std::uint64_t keys,
                                 std::size_t items, double skew) {
  FARM_CHECK(keys > 0 && skew > 0);
  // Inverse-CDF over precomputed harmonic weights: O(log keys) per draw,
  // unlike Rng::next_zipf which rebuilds the harmonic sum every call.
  std::vector<double> cdf(keys);
  double acc = 0;
  for (std::uint64_t k = 0; k < keys; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = acc;
  }
  util::Rng rng(seed);
  SyntheticStream s;
  s.items.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    double u = rng.next_double() * acc;
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    std::uint64_t rank =
        static_cast<std::uint64_t>(it - cdf.begin()) + 1;
    std::string key = "k" + std::to_string(rank);
    s.items.push_back({key, 1});
    ++s.truth[key];
    ++s.total;
  }
  return s;
}

std::vector<Fragment> run_fragments(const SketchSpec& spec,
                                    const SyntheticStream& stream,
                                    int fragments) {
  std::vector<Fragment> out;
  out.reserve(static_cast<std::size_t>(fragments));
  for (int i = 0; i < fragments; ++i) out.emplace_back(spec, i, fragments);
  for (const auto& item : stream.items)
    for (auto& frag : out) frag.add(item.key, item.count);
  return out;
}

Fragment fold_fragments(const std::vector<Fragment>& fragments) {
  FARM_CHECK(!fragments.empty());
  Fragment merged = fragments.front();
  for (std::size_t i = 1; i < fragments.size(); ++i)
    merged.merge(fragments[i]);
  return merged;
}

AccuracyScore score_detection(const std::vector<std::string>& truth,
                              const std::vector<std::string>& detected) {
  std::set<std::string> t(truth.begin(), truth.end());
  std::set<std::string> d(detected.begin(), detected.end());
  AccuracyScore s;
  for (const auto& k : d)
    t.count(k) ? ++s.true_positives : ++s.false_positives;
  for (const auto& k : t)
    if (!d.count(k)) ++s.false_negatives;
  return s;
}

}  // namespace farm::runtime::disketch
