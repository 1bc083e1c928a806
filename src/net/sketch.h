// Probabilistic sketches — the paper's §VIII future-work item ("the
// integration of sketches into FARM"), implemented as seed-side state
// primitives exposed through Almanac builtins (cms_* / hll_* / mg_*) and
// as the cell library of the DiSketch disaggregated runtime
// (src/runtime/disketch.h), which fragments one logical sketch across
// switches and folds the fragments at the harvester on epoch boundaries.
//
// CountMinSketch: count-min for per-key frequency estimation under bounded
// memory (over-estimates only; error ≤ εN with probability 1-δ for
// width=⌈e/ε⌉, depth=⌈ln 1/δ⌉), with conservative update. DiSketch
// fragments keep their own count-min cells with plain (linear) update, the
// only form whose cells fold into the monolithic sketch.
// MisraGries: deterministic heavy-hitter summary with k counters; every
// counter under-estimates its key's true count by at most the recorded
// decrement total (≤ N/(k+1)).
// HyperLogLog: cardinality estimation with 2^precision 6-bit registers
// (relative error ≈ 1.04/√m) — the natural fit for superspreader /
// entropy-style distinct counting that today costs the seeds O(n) lists.
//
// All hashing routes through util::stable_hash64 with per-row seeds from
// util::derive_seed, so two sketches built from the same hash_seed agree
// bit-for-bit on any platform — the contract the accuracy goldens and the
// fragment/merge bit-identity property rest on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace farm::net {

// Master seed shared by every sketch that does not ask for its own.
inline constexpr std::uint64_t kDefaultSketchSeed = 0x5EED'FA23'D15C'A7C4ull;

class CountMinSketch {
 public:
  CountMinSketch(int width, int depth,
                 std::uint64_t hash_seed = kDefaultSketchSeed);

  void add(std::string_view key, std::uint64_t count = 1);
  // Point query; never under-estimates the true count.
  std::uint64_t estimate(std::string_view key) const;
  void clear();

  int width() const { return width_; }
  int depth() const { return depth_; }
  std::uint64_t hash_seed() const { return hash_seed_; }
  std::size_t memory_bytes() const {
    return counters_.size() * sizeof(std::uint64_t);
  }
  std::uint64_t total_added() const { return total_; }
  const std::vector<std::uint64_t>& cells() const { return counters_; }

 private:
  std::uint64_t cell_hash(std::string_view key, int row) const;

  int width_;
  int depth_;
  std::uint64_t hash_seed_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> row_seeds_;  // derive_seed(hash_seed, row)
  std::vector<std::uint64_t> counters_;   // depth × width
};

// Misra-Gries heavy-hitter summary: at most `capacity` exact-key counters;
// when a new key arrives with the table full, every counter drops by the
// table minimum and zeroed slots free up. estimate(x) under-estimates the
// true count by at most decremented(); keys with true count > decremented()
// are guaranteed present. State is held in a sorted map so serialization
// and iteration are deterministic.
class MisraGries {
 public:
  explicit MisraGries(int capacity);

  void add(std::string_view key, std::uint64_t count = 1);
  // Lower-bound estimate; 0 when the key is not tracked.
  std::uint64_t estimate(std::string_view key) const;
  // Tracked keys with counter >= min_count, sorted by key.
  std::vector<std::pair<std::string, std::uint64_t>> hitters(
      std::uint64_t min_count) const;
  void clear();
  // Agarwal-style fold: sum counters key-wise, then reduce back to
  // capacity by subtracting the (capacity+1)-th largest count. Preserves
  // the N/(k+1) error bound of the concatenated streams.
  void merge(const MisraGries& other);

  // Rebuilds a summary from serialized state (DiSketch wire format).
  static MisraGries restore(int capacity, std::uint64_t total,
                            std::uint64_t decremented,
                            std::map<std::string, std::uint64_t> counters);

  int capacity() const { return capacity_; }
  std::uint64_t total_added() const { return total_; }
  // Total count subtracted from every surviving counter so far — the
  // summary's worst-case under-estimation.
  std::uint64_t decremented() const { return decremented_; }
  std::size_t size() const { return counters_.size(); }
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  std::size_t memory_bytes() const;

 private:
  int capacity_;
  std::uint64_t total_ = 0;
  std::uint64_t decremented_ = 0;
  std::map<std::string, std::uint64_t> counters_;
};

class HyperLogLog {
 public:
  // precision p in [4, 16]: m = 2^p registers.
  explicit HyperLogLog(int precision,
                       std::uint64_t hash_seed = kDefaultSketchSeed);

  void add(std::string_view key);
  // Cardinality estimate with small-range (linear counting) correction.
  double estimate() const;
  void clear();

  int precision() const { return precision_; }
  std::uint64_t hash_seed() const { return hash_seed_; }
  std::size_t memory_bytes() const { return registers_.size(); }
  const std::vector<std::uint8_t>& registers() const { return registers_; }

  // The raw-estimate + linear-counting formula over any register array —
  // shared with the DiSketch fragment runtime, which stores registers
  // itself so it can slice ownership across fragments.
  static double estimate_registers(const std::uint8_t* regs, std::size_t m);

 private:
  int precision_;
  std::uint64_t hash_seed_;
  std::vector<std::uint8_t> registers_;
};

// --- Declared sketch specs ---------------------------------------------------
// The static shape of one sketch declaration: what an Almanac `sketch`
// variable's initializer (cms_new / mg_new / hll_new) pins down, what
// Sickle's resource pass costs against the per-switch budget, and what the
// DiSketch runtime fragments. Lives here (not in runtime/) because both
// farm_almanac and farm_runtime consume it and almanac must not depend on
// the runtime.
enum class SketchKind { kCountMin, kMisraGries, kHyperLogLog };

std::string to_string(SketchKind k);

struct SketchSpec {
  SketchKind kind = SketchKind::kCountMin;
  int width = 2048;   // count-min
  int depth = 4;      // count-min
  int capacity = 64;  // misra-gries: total counters across all shards
  int shards = 16;    // misra-gries: key-space sub-tables (fragment unit)
  int precision = 12; // hyperloglog
  std::uint64_t hash_seed = kDefaultSketchSeed;

  // Counter cells the sketch pins in switch memory — the unit the SK/RS
  // budget costing and the fragment planner slice. CMS: width·depth; MG:
  // one cell per counter; HLL: one per register.
  std::size_t cells() const;
  std::size_t state_bytes() const;
  // Empty when the parameters are valid; otherwise what is wrong.
  std::string validate() const;
  std::string to_string() const;

  friend bool operator==(const SketchSpec&, const SketchSpec&) = default;
};

}  // namespace farm::net
