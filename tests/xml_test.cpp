// Tests for the Almanac ↔ XML pipeline (§V-A d): round-trips must be
// semantics-preserving for every shipped use case.
#include <gtest/gtest.h>

#include "almanac/compile.h"
#include "almanac/vm.h"
#include "almanac/xml.h"
#include "farm/usecases.h"

namespace farm::almanac {
namespace {

TEST(XmlTest, RoundTripsEveryUseCase) {
  for (const auto& uc : core::all_use_cases()) {
    SCOPED_TRACE(uc.name);
    Program original = parse_program(uc.source);
    std::string xml = to_xml(original);
    Program restored = from_xml(xml);
    ASSERT_EQ(restored.machines.size(), original.machines.size());
    ASSERT_EQ(restored.functions.size(), original.functions.size());
    // The restored program must serialize identically (canonical form) —
    // a strong structural-equality proxy.
    EXPECT_EQ(to_xml(restored), xml);
    // And still compile.
    for (const auto& mname : uc.machines)
      EXPECT_NO_THROW(compile_machine(restored, mname));
  }
}

TEST(XmlTest, RestoredMachineBehavesIdentically) {
  // Run the HH poll handler from source and from the XML round-trip and
  // compare observable state.
  const auto& uc = core::use_case("Heavy hitter (HH)");
  Program original = parse_program(uc.source);
  Program restored = from_xml(to_xml(original));

  auto run = [](const Program& p) {
    CompiledMachine cm = compile_machine(p, "HH");
    Vm vm(cm, nullptr);
    Registers regs(cm);
    for (std::size_t i = 0; i < cm.vars.size(); ++i) {
      const VarDecl* v = cm.vars[i];
      if (v->trigger) continue;
      regs.bind(i, v->init ? vm.eval(cm.code->var_inits[i], regs)
                           : default_value(v->type));
    }
    StatsValue stats;
    stats.entries->push_back({"port:0", 0, 0, 10, 5'000'000});
    const int observe = cm.code->state_index("observe");
    vm.run(cm.code->states[static_cast<std::size_t>(observe)].handlers[0],
           regs, Value(stats));
    return regs.var("hitters")->to_string();
  };
  EXPECT_EQ(run(original), run(restored));
}

TEST(XmlTest, EscapesSpecialCharacters) {
  Program p = parse_program(R"(
    machine M {
      string s = "a<b&c\"d";
      state x { when (enter) do { s = s + "\n"; } }
    }
  )");
  Program q = from_xml(to_xml(p));
  EXPECT_EQ(to_xml(q), to_xml(p));
}

TEST(XmlTest, RejectsMalformedDocuments) {
  EXPECT_THROW(from_xml("<program><machine></program>"), XmlError);
  EXPECT_THROW(from_xml("not xml at all"), XmlError);
  EXPECT_THROW(from_xml("<wrongroot/>"), XmlError);
}

TEST(XmlTest, PreservesPlacementDirectives) {
  Program p = parse_program(R"(
    machine M {
      place any receiver srcIP "10.1.1.4" and dstIP "10.0.1.0/24" range <= 1;
      place all 3, 8;
      state s { }
    }
  )");
  Program q = from_xml(to_xml(p));
  ASSERT_EQ(q.machines[0].places.size(), 2u);
  const auto& pl = q.machines[0].places[0];
  EXPECT_EQ(pl.mode, PlaceDirective::Mode::kRange);
  EXPECT_EQ(pl.anchor, PlaceDirective::Anchor::kReceiver);
  EXPECT_EQ(pl.range_op, BinOp::kLe);
  EXPECT_EQ(q.machines[0].places[1].switch_ids.size(), 2u);
}

}  // namespace
}  // namespace farm::almanac
