// Sickle: the Almanac seed verifier (DESIGN.md §10).
//
// A multi-pass static verifier over CompiledMachine. Where the §III-B
// elaboration analyses (analyze_utility / resolve_places / analyze_polls)
// throw on the first problem, Sickle runs *all* of its passes and collects
// every finding into a diagnostic list, so an operator sees the full
// damage report of a seed before deployment:
//
//   SG — state-graph analysis (unreachable states, traps, livelocks)
//   HD — event-handler overlap / determinism after inheritance flattening
//   DF — dataflow (use-before-init, read-only writes, dead stores)
//   UT — utility sanity (κ/ε interpretability, degenerate variants)
//   PO — poll analysis sanity (ival shape, evaluability)
//   RS — static resource estimation vs switch capacity (TCAM, PCIe budget)
//   PL — place-directive satisfiability on the live topology
//
// plus the CM codes reported by the collecting compiler front-end
// (compile_machine_collect). The seeder rejects tasks whose seeds carry
// error-severity diagnostics; warnings deploy but are surfaced.
#pragma once

#include <unordered_map>
#include <vector>

#include "almanac/compile.h"
#include "almanac/value.h"
#include "almanac/verify/diagnostics.h"
#include "net/topology.h"

namespace farm::almanac::verify {

// Stable diagnostic codes (full table in DESIGN.md §10).
namespace codes {
// Compilation front-end (reported by compile_machine_collect).
inline constexpr const char* kBadHierarchy = "CM001";
inline constexpr const char* kVarShadow = "CM002";
inline constexpr const char* kNoStates = "CM003";
inline constexpr const char* kLocalShadow = "CM004";
inline constexpr const char* kUtilRestriction = "CM005";
inline constexpr const char* kBadTransit = "CM006";
inline constexpr const char* kTriggerInit = "CM007";
// State graph.
inline constexpr const char* kUnreachableState = "SG001";
inline constexpr const char* kTrapState = "SG002";
inline constexpr const char* kSelfLoopLivelock = "SG003";
// Handlers.
inline constexpr const char* kDuplicateHandler = "HD001";
inline constexpr const char* kUnknownTriggerVar = "HD002";
inline constexpr const char* kUnhandledTrigger = "HD003";
// Dataflow.
inline constexpr const char* kUseBeforeInit = "DF001";
inline constexpr const char* kWriteExternal = "DF002";
inline constexpr const char* kWriteTrigger = "DF003";
inline constexpr const char* kNeverRead = "DF004";
// Utility.
inline constexpr const char* kUtilNotAnalyzable = "UT001";
inline constexpr const char* kUtilDivByVar = "UT002";
inline constexpr const char* kUtilUnconstrainedVariant = "UT003";
// Polls.
inline constexpr const char* kPollNotAnalyzable = "PO001";
inline constexpr const char* kPollNonlinearIval = "PO002";
// Resources.
inline constexpr const char* kTcamOverflow = "RS001";
inline constexpr const char* kPcieOverBudget = "RS002";
inline constexpr const char* kPcieNearBudget = "RS003";
// Placement.
inline constexpr const char* kPlaceUnsatisfiable = "PL001";
inline constexpr const char* kPlaceInvalid = "PL002";
// Sketches (DiSketch, DESIGN.md §11).
inline constexpr const char* kSketchNotAnalyzable = "SK001";
inline constexpr const char* kSketchBadParams = "SK002";
inline constexpr const char* kSketchOverBudget = "SK003";
// Abstract interpretation (Winnow, DESIGN.md §15).
inline constexpr const char* kAbsOverflow = "AI001";
inline constexpr const char* kAbsDivZero = "AI002";
inline constexpr const char* kAbsDeadGuard = "AI003";
inline constexpr const char* kAbsConstCompare = "AI004";
inline constexpr const char* kAbsUnobservable = "AI005";
}  // namespace codes

struct VerifyOptions {
  // Topology oracle for the place-satisfiability pass; nullptr skips PL.
  const net::SdnController* controller = nullptr;
  // External-variable bindings (same role as TaskSpec::externals); unbound
  // externals fall back to their initializer, then the type default.
  std::unordered_map<std::string, Value> externals;
  // Per-switch monitoring TCAM region a single seed must fit into
  // (SwitchConfig::tcam_monitoring_reserved default).
  int tcam_monitoring_capacity = 1024;
  // PCIe poll channel budget, §VI-A: 8 Mbps end to end.
  double pcie_budget_mbps = 8.0;
  // Worst-case polled entry count for `port ANY` subjects.
  int max_ifaces = 48;
};

// Runs all passes over one compiled machine. Diagnostics are ordered by
// source position.
std::vector<Diagnostic> verify_machine(const CompiledMachine& machine,
                                       const VerifyOptions& options = {});

// Compiles every machine of the program with the collecting compiler and
// verifies the ones that compiled without errors. CM diagnostics from the
// front-end and pass diagnostics share the same list.
std::vector<Diagnostic> verify_program(const Program& program,
                                       const VerifyOptions& options = {});
// Same, restricted to the named machines (empty = all). Used by the
// seeder, which only instantiates the machines a TaskSpec asks for, and
// builds their images from `compiled`: when set, it receives each machine
// that compiled without errors, in the order asked for.
std::vector<Diagnostic> verify_program(
    const Program& program, const std::vector<std::string>& machines,
    const VerifyOptions& options = {},
    std::vector<CompiledMachine>* compiled = nullptr);

inline std::size_t count_errors(const std::vector<Diagnostic>& diags) {
  std::size_t n = 0;
  for (const auto& d : diags)
    if (d.severity == Severity::kError) ++n;
  return n;
}
inline std::size_t count_warnings(const std::vector<Diagnostic>& diags) {
  std::size_t n = 0;
  for (const auto& d : diags)
    if (d.severity == Severity::kWarning) ++n;
  return n;
}

}  // namespace farm::almanac::verify
