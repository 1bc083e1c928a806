// DiSketch: the disaggregated sketch runtime (ROADMAP "DiSketch
// direction", DESIGN.md §11).
//
// A logical sketch (net::SketchSpec) is *fragmented* across F switches by
// slicing its cell space, not its packet stream: fragment i of F owns
//   count-min  — the columns  c with c % F == i (every row),
//   hyperloglog — the registers j with j % F == i,
//   misra-gries — the key shards s with s % F == i.
// Every fragment observes the full packet stream (in the fabric, the
// fragments of one logical sketch sit on the monitored flows' paths) but
// updates only the cells it owns; a key's (row, column) / register / shard
// is a pure function of the shared hash_seed, so each logical cell is
// written by exactly one fragment. Folding the fragments of an epoch —
// disjoint cell-space union — therefore reassembles the monolithic sketch
// *bit-for-bit at any fragment count*, which the property suite asserts on
// serialized bytes. That exactness is what opens the accuracy-vs-resource
// axis: per-switch cost shrinks to ~cells/F while estimates stay those of
// the full-size sketch.
//
// Epoch protocol: seeds serialize their fragment at each epoch boundary
// and ship [epoch, bytes] to the harvester; EpochFold merges slices and
// yields the reassembled logical sketch once all F arrived (out-of-order
// and interleaved epochs are fine — fragments carry their owned-slice
// set). Serialization is canonical: a complete state always serializes as
// fragment 0-of-1, so merged-at-any-F equals monolithic bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/sketch.h"

namespace farm::runtime::disketch {

using net::SketchKind;
using net::SketchSpec;

class Fragment {
 public:
  // Fragment `index` of `count` slices of the logical sketch. index == 0,
  // count == 1 is the monolithic sketch.
  Fragment(const SketchSpec& spec, int index, int count);

  // Feed one stream item. Cheap for cells the fragment does not own.
  void add(std::string_view key, std::uint64_t count = 1);
  // Epoch boundary: drop all state, keep geometry and ownership.
  void clear();

  // Folds another fragment of the same logical sketch (same spec, same
  // fragment count, disjoint owned slices) into this one.
  void merge(const Fragment& other);
  // Owns every slice — either monolithic or fully folded.
  bool complete() const;

  // Canonical deterministic byte encoding; complete states serialize
  // identically regardless of the fragment count they were folded from.
  std::string serialize() const;
  static Fragment deserialize(std::string_view bytes);

  // --- Queries (meaningful on complete states) -------------------------------
  // count-min / misra-gries point estimate (MG: lower bound, 0 if untracked).
  std::uint64_t estimate(std::string_view key) const;
  // hyperloglog cardinality.
  double cardinality() const;
  // misra-gries keys with counter >= min_count, sorted by key.
  std::vector<std::pair<std::string, std::uint64_t>> heavy_hitters(
      std::uint64_t min_count) const;
  // misra-gries: the decrement total of the key's shard — the worst-case
  // under-estimation of that key's counter (per-key detection bound).
  std::uint64_t shard_decrement(std::string_view key) const;

  const SketchSpec& spec() const { return spec_; }
  int fragment_count() const { return count_; }
  // Stream items observed (each fragment sees the full stream).
  std::uint64_t items() const { return items_; }
  // Cells this fragment pins on its switch — the per-switch resource cost.
  std::size_t owned_cells() const;

 private:
  Fragment() = default;
  bool owns_slice(std::size_t logical_index) const {
    return owned_[logical_index % owned_.size()];
  }

  SketchSpec spec_;
  int count_ = 1;            // F: slices of the logical cell space
  std::vector<bool> owned_;  // size F; which slices this state covers
  std::uint64_t items_ = 0;

  // Full-size logical tables; cells outside the owned slices stay zero.
  std::vector<std::uint64_t> row_seeds_;     // count-min, per row
  std::vector<std::uint64_t> cms_;           // width × depth
  std::vector<std::uint8_t> hll_;            // 2^precision registers
  std::uint64_t shard_seed_ = 0;             // misra-gries key→shard hash
  std::vector<net::MisraGries> mg_;          // one per key shard
};

// Harvester-side epoch assembly: collects fragment states per epoch and
// yields the reassembled logical sketch once all fragments of that epoch
// arrived. Epochs may interleave and complete out of order.
class EpochFold {
 public:
  explicit EpochFold(int fragment_count) : count_(fragment_count) {}

  // Folds one fragment into its epoch; returns the merged logical sketch
  // when this fragment completed the epoch.
  std::optional<Fragment> offer(std::int64_t epoch, const Fragment& frag);

  int fragment_count() const { return count_; }
  std::size_t pending_epochs() const { return partial_.size(); }
  std::uint64_t epochs_completed() const { return completed_; }

 private:
  int count_;
  std::uint64_t completed_ = 0;
  std::map<std::int64_t, Fragment> partial_;
};

// --- Fragment placement ------------------------------------------------------
// The smallest fragment count whose largest per-switch slice fits the
// given cell budget. 0 when even one cell per fragment cannot fit (budget
// of 0) — callers treat that as infeasible.
int min_fragments(const SketchSpec& spec, std::size_t cells_per_switch);
// Largest owned_cells() over the F fragments of the spec.
std::size_t max_fragment_cells(const SketchSpec& spec, int fragments);

// --- Accuracy harness --------------------------------------------------------
// Deterministic synthetic workload with exact ground truth, shared by
// tests/accuracy_test.cpp and bench/bench_disketch.cpp.

struct StreamItem {
  std::string key;
  std::uint64_t count = 1;
};

struct SyntheticStream {
  std::vector<StreamItem> items;
  std::map<std::string, std::uint64_t> truth;  // exact per-key totals
  std::uint64_t total = 0;
  std::uint64_t distinct() const { return truth.size(); }
  // Keys with true count >= min_count (the ground-truth heavy hitters).
  std::vector<std::string> hitters(std::uint64_t min_count) const;
};

// Zipf-skewed key stream from util::Rng — bit-stable across platforms.
SyntheticStream make_zipf_stream(std::uint64_t seed, std::uint64_t keys,
                                 std::size_t items, double skew);

// Runs the full stream through each of the F fragments (each updates only
// its owned slice), mirroring fragments deployed on a common path.
std::vector<Fragment> run_fragments(const SketchSpec& spec,
                                    const SyntheticStream& stream,
                                    int fragments);
// Folds fragments into the reassembled logical sketch.
Fragment fold_fragments(const std::vector<Fragment>& fragments);

struct AccuracyScore {
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  double precision() const {
    int d = true_positives + false_positives;
    return d == 0 ? 1.0 : static_cast<double>(true_positives) / d;
  }
  double recall() const {
    int d = true_positives + false_negatives;
    return d == 0 ? 1.0 : static_cast<double>(true_positives) / d;
  }
  double f1() const {
    double p = precision(), r = recall();
    return p + r == 0 ? 0.0 : 2 * p * r / (p + r);
  }
};

// Set comparison of detected keys vs ground truth.
AccuracyScore score_detection(const std::vector<std::string>& truth,
                              const std::vector<std::string>& detected);

}  // namespace farm::runtime::disketch
