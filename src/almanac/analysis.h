// Static analyses over compiled machines (§III-B).
//
// Three analyses feed placement:
//  1. analyze_utility — κ/ε interpretation of the util callback into
//     resource constraints C^s(r) (linear polynomials, each required ≥ 0)
//     and a utility u^s(r). `or` conditions, multiple ifs, and max() split
//     into *variants* (the paper's "several copies, at most one placed");
//     min() yields concave piecewise-linear utilities, which the LP handles
//     exactly via epigraph variables. It depends on the util body alone, so
//     compilation runs it once per state and stores the result on the
//     CompiledState (compile.h); every other reader takes it from there.
//  2. resolve_places — π interpretation of place directives into seed
//     candidate-switch sets N^s, using the SDN controller's path oracle.
//  3. analyze_polls — per poll/probe trigger variable: the polling subject
//     set φ_enc(φ^s[what]) and the interval function y.ival(r). The
//     optimizer needs 1/ival linear in r; the form the paper uses
//     (`c / res().X`) satisfies that, other forms fall back to a constant
//     evaluated at a reference allocation.
//
// Deviation note (π): the paper's worked example is ambiguous about
// grouping for `any` (its three outputs are mutually inconsistent under any
// single rule we could find). We implement: one seed per matching path with
// N^s = the path's matching placeable nodes, deduplicating identical N^s
// sets; `all` yields one seed per matching node. Coverage is equivalent.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/compile.h"
#include "almanac/vm.h"
#include "net/topology.h"

namespace farm::almanac {

// Analyzes a state's util callback. `param` inside the body exposes the
// allocation; both `res.vCPU` (field on the parameter) and `res().vCPU`
// forms are accepted. Throws CompileError on nonlinear constructs.
// Compilation runs it on every state and stores the outcome
// (CompiledState::utility).
UtilityAnalysis analyze_utility(const UtilityDecl& util);

// Default analysis for states without util: always placeable, utility 1
// (a seed the operator deployed has baseline worth). Compilation stores it
// for every such state.
UtilityAnalysis default_utility();

// --- Machine environment -----------------------------------------------------

// The machine registers the static analyses evaluate in, with no runtime
// host: `externals` bind external variables (bindings of other names are
// ignored); other variables take their initializer's value, or their type's
// default when they have none or it cannot be evaluated statically.
// Trigger variables and state locals stay unbound.
Registers static_machine_env(
    const CompiledMachine& machine,
    const std::unordered_map<std::string, Value>& externals = {});

// --- Poll analysis -----------------------------------------------------------

struct PollAnalysis {
  std::string var;
  TriggerType ttype = TriggerType::kPoll;
  // Polling subject filter and its φ_enc encoding.
  net::Filter what;
  std::vector<std::string> subjects;
  // 1 / ival as a linear polynomial when `inv_linear`; otherwise
  // `inv_ival` is the constant 1/ival evaluated at `reference_alloc`.
  Poly inv_ival;
  bool inv_linear = false;
  double ival_at(const ResourcesValue& r) const {
    double inv = inv_ival.eval(r);
    return inv > 0 ? 1.0 / inv : 0;
  }
};

// Analyzes all poll/probe trigger variables of the machine. `machine_env`
// must hold external-variable bindings (and machine variable initials) so
// `what` expressions evaluate to concrete filters. `reference_alloc` is
// the allocation used for the non-linear fallback.
std::vector<PollAnalysis> analyze_polls(const CompiledMachine& machine,
                                        Registers& machine_env,
                                        const ResourcesValue& reference_alloc);

// --- Sketch analysis ---------------------------------------------------------

// The static shape of one `sketch` variable (machine- or state-level): the
// declared spec that Sickle's resource pass costs against the per-switch
// cell budget and the DiSketch planner fragments. Initializer arguments are
// evaluated host-independently; anything res()- or runtime-dependent makes
// the declaration non-analyzable (SK001) rather than an error.
struct SketchAnalysis {
  std::string var;
  SourceLoc loc;
  // The initializer was a cms_new/mg_new/hll_new call with statically
  // evaluable arguments. When false, `spec` is meaningless.
  bool analyzable = false;
  // Non-empty when the statically evaluated parameters are invalid (SK002);
  // holds the SketchSpec::validate() message.
  std::string problem;
  net::SketchSpec spec;
};

// Analyzes every sketch-typed machine variable and state local with an
// initializer. `machine_env` supplies external-variable bindings, as for
// analyze_polls.
std::vector<SketchAnalysis> analyze_sketches(const CompiledMachine& machine,
                                             Registers& machine_env);

// --- Placement resolution -----------------------------------------------------

struct ResolvedSeed {
  // Candidate switches N^s; the seed must be placed on exactly one.
  std::vector<net::NodeId> candidates;
};

// π interpretation of the machine's place directives (see header comment
// for the grouping semantics). Only switch nodes are placeable.
std::vector<ResolvedSeed> resolve_places(const CompiledMachine& machine,
                                         Registers& machine_env,
                                         const net::SdnController& controller);

}  // namespace farm::almanac
