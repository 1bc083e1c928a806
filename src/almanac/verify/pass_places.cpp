// Sickle pass PL: place-directive satisfiability.
//
// π⟦·⟧ resolution (§III-B a) quietly yields *no seeds* for a directive
// that can never bind on the deployed topology — e.g. `place any midpoint
// range == 4` when every path is 5 nodes long (max midpoint distance 2),
// or a path filter whose prefixes match no host pair. The seeder would
// simply deploy nothing, which looks exactly like success. Sickle resolves
// each directive in isolation against the live topology and reports the
// ones that bind nothing (PL001) or are outright invalid (PL002, e.g. a
// switch id that does not exist — collected instead of thrown).
//
// This pass needs a topology oracle; without VerifyOptions::controller it
// is skipped.
#include "almanac/analysis.h"
#include "almanac/verify/passes.h"

namespace farm::almanac::verify {

namespace {

std::string describe(const PlaceDirective& pl) {
  switch (pl.mode) {
    case PlaceDirective::Mode::kEverywhere:
      return pl.all ? "place all" : "place any";
    case PlaceDirective::Mode::kSwitchList:
      return pl.all ? "place all <switches>" : "place any <switches>";
    case PlaceDirective::Mode::kRange: {
      std::string anchor =
          pl.anchor == PlaceDirective::Anchor::kSender     ? "sender"
          : pl.anchor == PlaceDirective::Anchor::kReceiver ? "receiver"
                                                           : "midpoint";
      return std::string(pl.all ? "place all " : "place any ") + anchor +
             " range " + to_string(pl.range_op) + " ...";
    }
  }
  return "place ...";
}

}  // namespace

void pass_places(const CompiledMachine& m, const VerifyOptions& opts,
                 DiagnosticSink& sink) {
  if (!opts.controller) return;
  // Default `place all` (no directive) binds every switch; nothing to do.
  if (m.places.empty()) return;

  Registers env = static_machine_env(m, opts.externals);
  for (const auto* pl : m.places) {
    // Resolve this directive alone so the finding points at it precisely.
    CompiledMachine probe = m;
    probe.places = {pl};
    try {
      auto seeds = resolve_places(probe, env, *opts.controller);
      if (seeds.empty())
        sink.error(codes::kPlaceUnsatisfiable, pl->loc,
                   "directive '" + describe(*pl) +
                       "' matches no switch on the current topology; the "
                       "machine would deploy zero seeds",
                   "check the range bound against the topology's path "
                   "lengths and the path filter against host prefixes");
    } catch (const CompileError& e) {
      sink.error(codes::kPlaceInvalid, e.loc(),
                 std::string("invalid place directive: ") + e.what());
    } catch (const EvalError& e) {
      sink.error(codes::kPlaceInvalid, pl->loc,
                 std::string("place directive is not statically "
                             "evaluable: ") +
                     e.what());
    }
  }
}

}  // namespace farm::almanac::verify
