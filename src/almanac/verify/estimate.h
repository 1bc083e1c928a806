// Static TCAM/PCIe resource estimation for one compiled machine — the
// numeric core of Sickle's RS pass, exposed so `almanac_tool optimize` and
// bench_winnow can report before/after footprints.
//
// With `facts == nullptr` the TCAM weight is the syntactic estimate the RS
// pass has always used: every `while` is scored at max_ifaces iterations.
// With a Winnow analysis attached, loops the engine proved to run at most
// N times are scored at min(N, max_ifaces) instead — never worse than the
// syntactic score.
#pragma once

#include <optional>
#include <vector>

#include "almanac/analysis.h"
#include "almanac/verify/absint.h"
#include "almanac/verify/verify.h"

namespace farm::almanac::verify {

struct ResourceEstimate {
  double tcam_rules = 0;
  // Static worst-case poll bandwidth; empty when analyze_polls rejects the
  // machine's poll specs.
  std::optional<double> pcie_mbps;
  // `while` loops encountered while weighing, and how many of them carried
  // a Winnow-proven trip bound.
  int loops_scored = 0;
  int loops_bounded = 0;
};

ResourceEstimate estimate_resources(const CompiledMachine& m,
                                    const VerifyOptions& opts,
                                    const absint::Analysis* facts = nullptr);

// The two halves of estimate_resources, for the RS pass, which reports on
// the poll analysis itself and so runs it once:
//   estimate_tcam — the TCAM fields alone (pcie_mbps stays empty);
//   static_poll_mbps — the worst-case bandwidth of analyzed polls: each at
//   the higher rate of the reference allocation and a grant of the whole
//   PCIe budget, reading what.poll_entries(max_ifaces) entries a poll.
ResourceEstimate estimate_tcam(const CompiledMachine& m,
                               const VerifyOptions& opts,
                               const absint::Analysis* facts = nullptr);
double static_poll_mbps(const std::vector<PollAnalysis>& polls,
                        const VerifyOptions& opts);

}  // namespace farm::almanac::verify
