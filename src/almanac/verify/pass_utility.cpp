// Sickle pass UT: utility-callback sanity.
//
// analyze_utility (§III-B b) stops at the first construct its κ/ε
// interpretation cannot express as linear polynomials. Compilation runs it
// per state and stores the analysis or that error on the CompiledState;
// Sickle turns stored errors into diagnostics and adds checks for shapes
// that *do* analyze but are probably not what the operator meant:
//
//   UT002  division whose divisor is not a positive constant — a divisor
//          that depends on the allocation can be zero at some allocations
//          (and breaks linearity), so the analysis rejects it; flagged
//          with its own code because it is by far the most common mistake.
//   UT001  any other κ/ε failure (non-numeric literals, variable
//          references, min()+min() sums, …), carrying the analyzer's
//          message.
//   UT003  a mixed analysis where some variant has an empty constraint
//          set: the unconstrained variant makes the seed placeable at
//          *any* allocation, so the feasibility conditions spelled out on
//          the other branches never actually gate placement.
#include "almanac/verify/passes.h"

namespace farm::almanac::verify {

namespace {

// Reports UT002 for every division by a non-constant divisor in the util
// body. Returns true if anything was reported (suppresses the redundant
// UT001 the analyzer would add for the same site).
bool scan_divisions(const UtilityDecl& util, DiagnosticSink& sink) {
  bool found = false;
  auto scan_expr = [&](const Expr& root) {
    walk_expr(root, [&](const Expr& e) {
      if (e.kind != Expr::Kind::kBinary || e.op != BinOp::kDiv) return;
      const Expr& den = *e.args[1];
      if (den.kind == Expr::Kind::kLiteral && den.literal.is_numeric() &&
          den.literal.as_float() != 0)
        return;
      found = true;
      sink.error(codes::kUtilDivByVar, e.loc,
                 den.kind == Expr::Kind::kLiteral
                     ? "division by zero in util"
                     : "util divides by an expression that can be zero at "
                       "some allocations; divisors must be positive "
                       "constants",
                 "multiply by the reciprocal constant instead");
    });
  };
  walk_actions(util.body, [&](const Action& a) {
    if (a.expr) scan_expr(*a.expr);
  });
  return found;
}

}  // namespace

void pass_utility(const CompiledMachine& m, const VerifyOptions&,
                  DiagnosticSink& sink) {
  for (const auto& s : m.states) {
    if (!s.util) continue;
    bool div_reported = scan_divisions(*s.util, sink);
    if (const CompileError* e = s.utility_error()) {
      // The division scan already produced a precise diagnostic for
      // divisor problems; everything else surfaces as UT001.
      if (!div_reported ||
          std::string(e->what()).find("divis") == std::string::npos)
        sink.error(codes::kUtilNotAnalyzable, e->loc(),
                   "util of state '" + s.name +
                       "' is not statically analyzable: " + e->what(),
                   "restrict the body to linear arithmetic over res fields "
                   "with min/max");
      continue;
    }

    bool any_empty = false, any_constrained = false;
    for (const auto& v : s.utility_analysis()->variants) {
      if (v.constraints.empty())
        any_empty = true;
      else
        any_constrained = true;
    }
    if (any_empty && any_constrained)
      sink.warning(codes::kUtilUnconstrainedVariant, s.util->loc,
                   "util of state '" + s.name +
                       "' has an always-feasible variant; the feasibility "
                       "constraints on its other branches never gate "
                       "placement",
                   "constrain every return path (e.g. give the else branch "
                   "an explicit feasibility condition)");
  }
}

}  // namespace farm::almanac::verify
