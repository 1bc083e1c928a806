// Sickle pass RS/PO: static resource estimation against switch capacity.
//
// A single seed must fit one switch. Two budgets can be bounded without
// running anything:
//
//   TCAM — count addTCAMRule call sites reachable from any handler of any
//   state (rules persist across transitions, so the worst case is the sum
//   over all states). A call site inside a `while` loop is scored at
//   max_ifaces installs (the canonical loop bound: one rule per polled
//   interface), nested loops multiply. RS001 when the estimate exceeds
//   the monitoring TCAM region a switch reserves for seeds.
//
//   PCIe — analyze_polls gives 1/ival as a polynomial in the allocation;
//   the per-poll transfer is entries × kStatEntryBytes. The worst-case
//   rate (static_poll_mbps: evaluated at the reference allocation and at a
//   full-PCIe-budget allocation, whichever is higher) must stay inside the
//   8 Mbps poll channel (RS002), and a single seed demanding more than
//   kPcieWarnFraction of it is flagged early (RS003).
//
// Poll shape problems surface here too, because this pass is the one
// running analyze_polls: PO001 when the analysis rejects the spec
// outright, PO002 when a non-inverse-linear ival silently degrades to a
// constant evaluated at the reference allocation (§III-B c).
#include <cstdio>

#include "almanac/analysis.h"
#include "almanac/verify/estimate.h"
#include "almanac/verify/passes.h"

namespace farm::almanac::verify {

namespace {

// RS003 fires when a seed's static poll demand exceeds this fraction of
// the budget (a single seed hogging half the channel starves the rest).
constexpr double kPcieWarnFraction = 0.5;

// Per-switch sketch cell budget (counter cells a single seed's declared
// sketches may pin; SketchSpec::cells). SK003 fires when the machine's
// declared total exceeds it, with the DiSketch fragment count that would
// fit as the remediation hint. Sized so the shipped sketch examples
// (~20.5k cells) deploy monolithically.
constexpr std::size_t kSketchCellBudget = 32768;

}  // namespace

void pass_resources(const CompiledMachine& m, const VerifyOptions& opts,
                    DiagnosticSink& sink) {
  // --- TCAM ------------------------------------------------------------------
  // Syntactic weight (no Winnow facts): the RS gate stays conservative —
  // an operator can run `almanac_tool optimize` for the refined score.
  double rules = estimate_tcam(m, opts).tcam_rules;
  if (rules > opts.tcam_monitoring_capacity) {
    SourceLoc loc;
    if (const MachineDecl* d = m.program->machine(m.name)) loc = d->loc;
    sink.error(codes::kTcamOverflow, loc,
               "machine '" + m.name + "' can install ~" +
                   std::to_string(static_cast<long long>(rules)) +
                   " TCAM rules (loops scored at " +
                   std::to_string(opts.max_ifaces) +
                   " iterations), exceeding the " +
                   std::to_string(opts.tcam_monitoring_capacity) +
                   "-entry monitoring region of a single switch",
               "bound rule installs (dedup via getTCAMRule, or aggregate "
               "per prefix instead of per interface)");
  }

  Registers env = static_machine_env(m, opts.externals);

  // --- Sketch cells (SK, DESIGN.md §11) --------------------------------------
  // Declared sketch state is costed like TCAM: the per-variable SketchSpec
  // cell counts must jointly fit the per-switch budget, or the seed needs
  // DiSketch fragmentation across several switches.
  std::size_t sketch_cells = 0;
  for (const auto& sa : analyze_sketches(m, env)) {
    if (!sa.analyzable) {
      sink.warning(codes::kSketchNotAnalyzable, sa.loc,
                   "sketch variable '" + sa.var +
                       "' has an initializer the seeder cannot evaluate "
                       "statically; its switch-memory cost is unknown and "
                       "excluded from the budget check",
                   "initialize with cms_new/mg_new/hll_new and constant "
                   "parameters");
      continue;
    }
    if (!sa.problem.empty()) {
      sink.error(codes::kSketchBadParams, sa.loc,
                 "sketch variable '" + sa.var + "' has invalid parameters: " +
                     sa.problem,
                 "see the sketch builtin table in DESIGN.md §11 for valid "
                 "ranges");
      continue;
    }
    sketch_cells += sa.spec.cells();
  }
  if (sketch_cells > kSketchCellBudget) {
    SourceLoc loc;
    if (const MachineDecl* d = m.program->machine(m.name)) loc = d->loc;
    std::size_t frags =
        (sketch_cells + kSketchCellBudget - 1) / kSketchCellBudget;
    sink.error(codes::kSketchOverBudget, loc,
               "machine '" + m.name + "' declares " +
                   std::to_string(sketch_cells) +
                   " sketch cells, over the " +
                   std::to_string(kSketchCellBudget) +
                   "-cell monitoring budget of a single switch",
               "shrink the sketches or fragment across >= " +
                   std::to_string(frags) +
                   " switches with the DiSketch runtime");
  }

  // --- Polls / PCIe ----------------------------------------------------------
  std::vector<PollAnalysis> polls;
  try {
    polls = analyze_polls(m, env, kReferenceAlloc);
  } catch (const CompileError& e) {
    sink.error(codes::kPollNotAnalyzable, e.loc(),
               std::string("poll analysis failed: ") + e.what(),
               "give the poll a Poll { .ival = <positive>, .what = ... } "
               "initializer the seeder can evaluate statically");
    return;
  } catch (const EvalError& e) {
    sink.error(codes::kPollNotAnalyzable, e.loc(),
               std::string("poll analysis failed: ") + e.what());
    return;
  }

  for (const auto& pa : polls) {
    if (pa.inv_linear) continue;
    const VarDecl* v = m.var(pa.var);
    sink.warning(codes::kPollNonlinearIval, v ? v->loc : SourceLoc{},
                 "ival of " + to_string(pa.ttype) + " variable '" + pa.var +
                     "' is not inverse-linear in the allocation; the "
                     "optimizer falls back to a constant rate sampled at "
                     "the reference allocation",
                 "use a constant or the  c / res().X  form so the rate "
                 "scales with the granted resources");
  }
  const double total_mbps = static_poll_mbps(polls, opts);
  if (polls.empty() || total_mbps <= 0) return;
  SourceLoc loc = m.var(polls.front().var) ? m.var(polls.front().var)->loc
                                           : SourceLoc{};
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", total_mbps);
  if (total_mbps > opts.pcie_budget_mbps) {
    sink.error(codes::kPcieOverBudget, loc,
               "machine '" + m.name + "' statically needs " + buf +
                   " Mbps of poll bandwidth, over the " +
                   std::to_string(static_cast<int>(opts.pcie_budget_mbps)) +
                   " Mbps PCIe poll channel of a single switch",
               "raise the ival, narrow .what, or split the machine");
  } else if (total_mbps > kPcieWarnFraction * opts.pcie_budget_mbps) {
    sink.warning(codes::kPcieNearBudget, loc,
                 "machine '" + m.name + "' statically needs " + buf +
                     " Mbps of poll bandwidth — more than " +
                     std::to_string(static_cast<int>(
                         kPcieWarnFraction * 100)) +
                     "% of a switch's PCIe poll channel, leaving little "
                     "room for co-located seeds",
                 "consider a longer ival or a narrower .what filter");
  }
}

}  // namespace farm::almanac::verify
