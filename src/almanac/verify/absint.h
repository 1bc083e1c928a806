// Winnow: abstract interpretation over compiled Almanac machines
// (DESIGN.md §15).
//
// A worklist fixpoint over the machine's state graph running two domains at
// once:
//   - an interval domain over the numeric registers (machine variables,
//     block locals, handler bindings), with threshold widening and one
//     narrowing sweep;
//   - a constancy domain over booleans and strings (and, degenerately,
//     numeric singletons [c, c]).
//
// The engine computes, per machine state, an over-approximation of every
// register environment the machine can be *resident* in while sitting in
// that state, then replays each handler once more against the stabilized
// environments to harvest per-expression facts:
//   - joined abstract values for every evaluated expression (constant
//     folding, AI004 always-true/false comparisons);
//   - provable int64 overflow (AI001) and division by a provably-zero
//     value (AI002);
//   - proven worst-case trip counts for counting loops, which the refined
//     resource estimator (estimate.h) uses to tighten the syntactic
//     `while = x48` TCAM weight;
//   - guard-aware state reachability (AI003) and value-observability of
//     registers (AI005).
//
// Soundness contract (checked by the replay harness in opt/replay.h): for
// any event stream the runtime can deliver, every concrete value a machine
// register takes while resident in state S lies in gamma(state_entry[S]).
// Externals are modeled as Top unless bound in AbsintOptions::externals —
// an unbound external is an operator knob that may hold *any* value of its
// type, so no fact derived from its initializer would be sound.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/compile.h"
#include "almanac/value.h"

namespace farm::almanac::verify::absint {

// --- Interval ---------------------------------------------------------------

// Closed interval over doubles; +-infinity encodes unboundedness. Doubles
// cover the int64 range with enough slack for the conservative overflow
// test (we only claim "provably overflows" with a margin above 2^63).
struct Interval {
  double lo;
  double hi;

  static Interval top();
  static Interval point(double v);
  bool is_point() const;
  bool contains(double v) const;
  std::string to_string() const;
};

// --- Abstract values --------------------------------------------------------

class AbsVal {
 public:
  enum class Kind {
    kBottom,  // unreachable / no value
    kConst,   // exact non-numeric constant (bool or string)
    kNum,     // numeric with interval bounds; is_int() = provably integral
    kTop,     // any value of any type
  };

  AbsVal() : kind_(Kind::kTop) {}

  static AbsVal bottom();
  static AbsVal top();
  static AbsVal num_int(double lo, double hi);
  static AbsVal num_float(double lo, double hi);
  static AbsVal boolean(bool b);
  static AbsVal string_const(std::string s);
  // Best abstraction of a concrete value: numerics become singleton
  // intervals, bools/strings become kConst, everything else Top (lists,
  // stats, sketches are shared mutable containers — a constant would not
  // stay constant).
  static AbsVal of_value(const Value& v);

  Kind kind() const { return kind_; }
  bool is_bottom() const { return kind_ == Kind::kBottom; }
  bool is_top() const { return kind_ == Kind::kTop; }
  bool is_num() const { return kind_ == Kind::kNum; }
  bool is_int() const { return kind_ == Kind::kNum && is_int_; }
  const Interval& interval() const { return iv_; }

  // kConst payload access.
  bool is_const_bool() const;
  bool const_bool() const;
  bool is_const_string() const;
  const std::string& const_string() const;

  // Singleton test across both domains: fills `out` with the literal this
  // abstract value pins down (bool/string constants, integral singleton
  // intervals, finite float singletons).
  bool singleton(Value* out) const;

  AbsVal join(const AbsVal& o) const;
  // Meet restricted to what narrowing needs: returns the tighter of the
  // two when comparable, *this otherwise.
  AbsVal meet(const AbsVal& o) const;
  // Widening with a fixed threshold ladder (DESIGN.md §15): unstable
  // bounds jump to the next threshold instead of plain infinity, keeping
  // loop bounds like `i < 48` provable after stabilization.
  AbsVal widen(const AbsVal& next) const;
  bool leq(const AbsVal& o) const;
  bool same(const AbsVal& o) const;
  // True when every concrete value `v` may take satisfies this abstraction.
  bool admits(const Value& v) const;

  std::string to_string() const;

 private:
  Kind kind_;
  bool cbool_ = false;       // kConst bool payload
  bool is_string_ = false;   // kConst discriminator
  std::string cstr_;         // kConst string payload
  Interval iv_{0, 0};        // kNum
  bool is_int_ = false;      // kNum: provably integral
};

// --- Engine options / results ----------------------------------------------

struct AbsintOptions {
  // Bound externals (seeder intake knows the task's bindings); unbound
  // externals are Top.
  std::unordered_map<std::string, Value> externals;
  // Worst-case polled entry count (stats_size upper bound) — mirrors
  // VerifyOptions::max_ifaces.
  int max_ifaces = 48;
};

struct Analysis {
  // Per-state join of machine-register environments over all residency
  // points. Missing state = proven unreachable.
  std::map<std::string, std::map<std::string, AbsVal>> state_entry;
  std::set<std::string> reachable_states;

  // Joined abstract value per evaluated expression node (final pass only,
  // joined across states / call sites). Keys are nodes of the analyzed
  // machine's AST.
  std::unordered_map<const Expr*, AbsVal> expr_facts;
  // Proven worst-case trip counts for `while` actions (counting-loop
  // pattern); absence = no bound proven.
  std::unordered_map<const Action*, std::int64_t> loop_bounds;

  // AI001/AI002 carriers: binary nodes whose joined operand intervals
  // prove an int64 overflow / a zero divisor on every evaluation.
  std::set<const Expr*> overflow_nodes;
  std::set<const Expr*> div_by_zero_nodes;
  // Joined raw result interval per overflow node (for diagnostics).
  std::unordered_map<const Expr*, Interval> overflow_ranges;

  // Register names whose value can reach an observable effect (condition,
  // transit, send, host/builtin call, external/trigger write). Computed
  // syntactically over handlers + reachable functions; names not in the
  // set are provably unobservable.
  std::set<std::string> observable_vars;
  // Names read somewhere / assigned somewhere (same scan).
  std::set<std::string> read_vars;
  std::set<std::string> assigned_vars;

  // Engine statistics.
  int iterations = 0;
  int widen_applications = 0;
  bool hit_cap = false;

  bool converged() const { return !hit_cap; }
};

// Runs the fixpoint + final fact-collection pass. Never throws on any
// compilable machine; a hit iteration cap yields an Analysis with
// hit_cap = true and empty fact tables (everything Top — still sound).
Analysis analyze_machine(const CompiledMachine& m,
                         const AbsintOptions& opts = {});

// Pure syntactic purity test used by the optimizer: true when evaluating
// `e` cannot touch a host, mutate state, or call anything but the
// value-pure builtins (min/max/abs).
bool expr_is_pure(const Expr& e);

}  // namespace farm::almanac::verify::absint
