#include "almanac/verify/estimate.h"

#include <algorithm>

#include "almanac/vm.h"
#include "almanac/verify/passes.h"
#include "net/filter.h"
#include "sim/cost_model.h"

namespace farm::almanac::verify {

namespace {

struct TcamWeigher {
  const Program& program;
  int loop_bound;
  const absint::Analysis* facts;
  ResourceEstimate* est;
  std::unordered_set<std::string> in_progress;

  double weigh_expr(const Expr& e, double depth_mult) {
    double w = 0;
    walk_expr(e, [&](const Expr& x) {
      if (x.kind != Expr::Kind::kCall) return;
      if (x.name == "addTCAMRule") {
        w += depth_mult;
      } else if (const FuncDecl* f = is_builtin(x.name)
                                         ? nullptr
                                         : program.function(x.name)) {
        // Recursion guard: a cycle contributes no additional installs.
        if (in_progress.insert(x.name).second) {
          w += weigh(f->body, depth_mult);
          in_progress.erase(x.name);
        }
      }
    });
    return w;
  }

  double weigh(const std::vector<ActionPtr>& actions, double depth_mult) {
    double w = 0;
    for (const auto& a : actions) {
      double mult = depth_mult;
      if (a->kind == Action::Kind::kWhile) {
        ++est->loops_scored;
        double bound = loop_bound;
        if (facts) {
          auto it = facts->loop_bounds.find(a.get());
          if (it != facts->loop_bounds.end()) {
            bound = std::min<double>(bound,
                                     static_cast<double>(it->second));
            ++est->loops_bounded;
          }
        }
        mult *= bound;
      }
      if (a->expr) w += weigh_expr(*a->expr, mult);
      if (a->to_dst) w += weigh_expr(*a->to_dst, mult);
      w += weigh(a->body, mult);
      w += weigh(a->else_body, depth_mult);
    }
    return w;
  }
};

}  // namespace

ResourceEstimate estimate_tcam(const CompiledMachine& m,
                               const VerifyOptions& opts,
                               const absint::Analysis* facts) {
  ResourceEstimate est;
  // Sum over all dedup'd handlers, each weighed with its own recursion
  // guard.
  std::unordered_set<const EventDecl*> seen;
  for (const auto& s : m.states)
    for (const auto* ev : s.events)
      if (seen.insert(ev).second) {
        TcamWeigher w{*m.program, opts.max_ifaces, facts, &est, {}};
        est.tcam_rules += w.weigh(ev->actions, 1.0);
      }
  return est;
}

double static_poll_mbps(const std::vector<PollAnalysis>& polls,
                        const VerifyOptions& opts) {
  // The allocation-dependent rate grows with the grant, and a seed can be
  // granted at most the whole poll budget on the PCIe axis.
  ResourcesValue generous = kReferenceAlloc;
  generous.PCIe = opts.pcie_budget_mbps;
  double mbps = 0;
  for (const auto& pa : polls) {
    double inv = std::max(pa.inv_ival.eval(kReferenceAlloc),
                          pa.inv_ival.eval(generous));
    if (inv <= 0) continue;  // analyze_polls already guarantees positivity
    mbps += inv * pa.what.poll_entries(opts.max_ifaces) *
            sim::cost::kStatEntryBytes * 8.0 / 1e6;
  }
  return mbps;
}

ResourceEstimate estimate_resources(const CompiledMachine& m,
                                    const VerifyOptions& opts,
                                    const absint::Analysis* facts) {
  ResourceEstimate est = estimate_tcam(m, opts, facts);
  Registers env = static_machine_env(m, opts.externals);
  // pcie_mbps stays empty when the poll specs do not analyze.
  try {
    est.pcie_mbps =
        static_poll_mbps(analyze_polls(m, env, kReferenceAlloc), opts);
  } catch (const CompileError&) {
  } catch (const EvalError&) {
  }
  return est;
}

}  // namespace farm::almanac::verify
