// Soundness harness for the Winnow optimizer (DESIGN.md §15).
//
// `replay_compare` drives the original and the optimized machine through
// identical randomized event streams and asserts bit-identical observable
// behavior. Both run on the seed core the soil runtime runs
// (almanac/seed_core.h) over a deterministic in-memory host, so there is
// no second event loop to keep in sync. Every host effect (TCAM
// install/remove/query, send, exec, log, trigger refresh, transit request),
// every handler error, state entry and transit-chain cut, the resident
// state after each event, and the utility sampled at two allocations must
// match line for line.
//
// It simultaneously checks the analysis envelope itself: after each event
// settles, every machine register of the *original* run must be admitted
// by `analysis.state_entry[current_state]` — the soundness contract of
// absint.h. Callers must pass the same externals the analysis was run
// with, or the envelope check is meaningless.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "almanac/compile.h"
#include "almanac/value.h"
#include "almanac/verify/absint.h"

namespace farm::almanac::opt {

struct ReplayOptions {
  std::uint64_t seed = 0x5EEDF00Dull;
  int streams = 4;            // independent event streams per comparison
  int events_per_stream = 64; // events delivered per stream
  int max_ifaces = 8;         // polled stats entry cap per snapshot
  // External variable bindings — must mirror AbsintOptions::externals of
  // the analysis being checked.
  std::unordered_map<std::string, Value> externals;
};

struct ReplayReport {
  bool identical = true;    // optimized matched original on every stream
  bool intervals_ok = true; // original stayed inside the analysis envelope
  int events_run = 0;
  // First mismatch, human-readable; empty when both checks pass.
  std::string divergence;

  bool ok() const { return identical && intervals_ok; }
};

ReplayReport replay_compare(const CompiledMachine& original,
                            const CompiledMachine& optimized,
                            const verify::absint::Analysis& analysis,
                            const ReplayOptions& opts = {});

}  // namespace farm::almanac::opt
