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
//
// The stream driver is parameterized over the event loop it drives
// (ReplayRun): `replay_compare_runs` compares any two, which is how a
// differential test holds the seed VM against another implementation of
// the same semantics (transcript.h wraps a core as a ReplayRun).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

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

// One machine's event loop under the harness, over the transcript host.
class ReplayRun {
 public:
  virtual ~ReplayRun() = default;
  virtual void set_now_ms(std::int64_t now) = 0;
  virtual void set_alloc(const ResourcesValue& r) = 0;
  virtual void start() = 0;
  virtual void on_poll(const std::string& var, const StatsValue& stats) = 0;
  virtual void on_probe(const std::string& var,
                        const net::PacketHeader& packet) = 0;
  virtual void on_time(const std::string& var) = 0;
  virtual void on_message(const Value& payload, bool from_harvester,
                          const std::string& from_machine) = 0;
  virtual void on_realloc() = 0;
  virtual const std::string& current_state() const = 0;
  virtual double utility(const ResourcesValue& r) const = 0;
  // The machine variables by name (the envelope check).
  virtual std::unordered_map<std::string, Value> machine_vars() const = 0;
};

// Builds a run of `machine` with `externals` bound, appending to
// `transcript`; an EvalError from binding propagates.
using ReplayRunFactory = std::function<std::unique_ptr<ReplayRun>(
    const CompiledMachine& machine,
    const std::unordered_map<std::string, Value>& externals,
    std::vector<std::string>& transcript)>;

// The seed core (seed_core.h) under the transcript host.
ReplayRunFactory seed_core_runs();

// Drives `make_a(a)` and `make_b(b)` through the identical event streams
// of `a`'s event menu and compares their transcripts. The envelope check
// runs on the `a` run when `analysis` is given.
ReplayReport replay_compare_runs(const CompiledMachine& a,
                                 const ReplayRunFactory& make_a,
                                 const CompiledMachine& b,
                                 const ReplayRunFactory& make_b,
                                 const verify::absint::Analysis* analysis,
                                 const ReplayOptions& opts = {});

}  // namespace farm::almanac::opt
