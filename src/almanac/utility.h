// The model types of the util analysis (§III-B b): linear polynomials over
// the resource dimensions, the feasibility regions + utilities they form,
// and one state's analysis. Compilation stores each state's analysis on
// its CompiledState (compile.h); the analysis itself is analyze_utility
// (analysis.h).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "almanac/value.h"

namespace farm::almanac {

// The resource dimensions of the optimization model (matches
// ResourcesValue::field_names(): vCPU, RAM, TCAM, PCIe).
inline constexpr std::size_t kNumResources = 4;
enum ResourceDim : std::size_t { kVCpu = 0, kRam = 1, kTcam = 2, kPcie = 3 };

// Linear polynomial c0 + Σ coeff[i]·r_i over the resource dimensions.
struct Poly {
  double c0 = 0;
  std::array<double, kNumResources> coeff{};

  static Poly constant(double c) {
    Poly p;
    p.c0 = c;
    return p;
  }
  static Poly var(std::size_t dim, double k = 1) {
    Poly p;
    p.coeff[dim] = k;
    return p;
  }
  bool is_constant() const {
    for (double c : coeff)
      if (c != 0) return false;
    return true;
  }
  double eval(const ResourcesValue& r) const {
    return c0 + coeff[kVCpu] * r.vCPU + coeff[kRam] * r.RAM +
           coeff[kTcam] * r.TCAM + coeff[kPcie] * r.PCIe;
  }
  Poly operator+(const Poly& o) const;
  Poly operator-(const Poly& o) const;
  Poly scaled(double k) const;
  std::string to_string() const;
};

// One feasibility region + utility of a seed. Utility is the minimum of
// `util_min_terms` (a single term ⇒ plain linear).
struct UtilityVariant {
  std::vector<Poly> constraints;  // each must be >= 0
  std::vector<Poly> util_min_terms;

  bool feasible(const ResourcesValue& r) const {
    for (const auto& c : constraints)
      if (c.eval(r) < -1e-9) return false;
    return true;
  }
  double utility(const ResourcesValue& r) const {
    double u = std::numeric_limits<double>::infinity();
    for (const auto& t : util_min_terms) u = std::min(u, t.eval(r));
    return util_min_terms.empty() ? 0 : u;
  }
};

struct UtilityAnalysis {
  std::vector<UtilityVariant> variants;

  // Utility at an allocation: best feasible variant (the optimizer places
  // at most one copy; evaluating takes the max over feasible regions).
  double utility(const ResourcesValue& r) const {
    double best = 0;
    bool any = false;
    for (const auto& v : variants)
      if (v.feasible(r)) {
        best = any ? std::max(best, v.utility(r)) : v.utility(r);
        any = true;
      }
    return any ? best : 0;
  }
};

}  // namespace farm::almanac
