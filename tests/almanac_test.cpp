// Tests for the Almanac DSL: lexer, parser, compilation (inheritance),
// interpretation, and the §III-B static analyses.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "almanac/analysis.h"
#include "almanac/compile.h"
#include "almanac/lexer.h"
#include "almanac/parser.h"
#include "almanac/seed_core.h"
#include "almanac/verify/verify.h"
#include "almanac/vm.h"
#include "net/topology.h"

namespace farm::almanac {
namespace {

// ---------------------------------------------------------------------------
// A faithful transcription of the paper's List. 2 (heavy hitter seed) in the
// concrete syntax of this implementation, plus the getHH / setHitterRules
// helpers the paper abstracts.
constexpr const char* kHeavyHitterSource = R"ALM(
func list getHH(stats cur, list prev, long threshold) {
  list hitters;
  long i = 0;
  while (i < stats_size(cur)) {
    long seen = stats_bytes(cur, i);
    long before = 0;
    if (i < list_size(prev)) then { before = to_long(list_get(prev, i)); }
    if (seen - before >= threshold) then {
      list_append(hitters, stats_iface(cur, i));
    }
    i = i + 1;
  }
  return hitters;
}

func list snapshotBytes(stats cur) {
  list out;
  long i = 0;
  while (i < stats_size(cur)) {
    list_append(out, stats_bytes(cur, i));
    i = i + 1;
  }
  return out;
}

func void setHitterRules(list hitters, action hitterAction) {
  long i = 0;
  while (i < list_size(hitters)) {
    addTCAMRule(iface_filter(to_long(list_get(hitters, i))), hitterAction);
    i = i + 1;
  }
}

machine HH {
  place all;
  poll pollStats = Poll {
    .ival = 10/res().PCIe, .what = port ANY
  };
  external long threshold = 1000000;
  action hitterAction;
  list hitters;
  list prevBytes;

  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, prevBytes, threshold);
      prevBytes = snapshotBytes(stats);
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester)
  do { threshold = newTh; }
  when (recv action hitAct from harvester)
  do { hitterAction = hitAct; }
}
)ALM";

// A SeedHost fake recording every host interaction.
class FakeHost : public SeedHost {
 public:
  ResourcesValue res{2, 256, 64, 4};
  std::vector<asic::TcamRule> added_rules;
  std::vector<net::Filter> removed;
  std::vector<std::pair<Value, SendTarget>> sent;
  std::vector<std::string> execs;
  std::optional<std::string> transit;
  std::vector<std::string> trigger_updates;
  std::int64_t now = 0;

  ResourcesValue resources() override { return res; }
  void add_tcam_rule(const asic::TcamRule& rule) override {
    added_rules.push_back(rule);
  }
  void remove_tcam_rule(const net::Filter& pattern) override {
    removed.push_back(pattern);
  }
  std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) override {
    for (const auto& r : added_rules)
      if (r.pattern.canonical_key() == pattern.canonical_key()) return r;
    return std::nullopt;
  }
  void send(const Value& payload, const SendTarget& target) override {
    sent.emplace_back(payload, target);
  }
  void exec(const std::string& command) override { execs.push_back(command); }
  void request_transit(const std::string& state) override { transit = state; }
  void trigger_updated(const std::string& var) override {
    trigger_updates.push_back(var);
  }
  std::int64_t switch_id() override { return 7; }
  std::int64_t now_ms() override { return now; }
  void log(const std::string&) override {}
};

// Helper: parse + compile a machine, keeping the Program alive.
struct Compiled {
  Program program;
  CompiledMachine machine;
};

Compiled compile(const std::string& src, const std::string& name) {
  Compiled c{parse_program(src), {}};
  c.machine = compile_machine(c.program, name);
  return c;
}

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesRepresentativeInput) {
  auto toks = lex("machine HH { poll x = 10/res().PCIe; } // comment");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_TRUE(toks[0].is_ident("machine"));
  EXPECT_TRUE(toks[1].is_ident("HH"));
  EXPECT_TRUE(toks[2].is_punct("{"));
  EXPECT_EQ(toks.back().kind, TokKind::kEof);
}

TEST(LexerTest, NumbersIntsAndFloats) {
  auto toks = lex("42 3.5 1e3 2.5e-2");
  EXPECT_EQ(toks[0].kind, TokKind::kInt);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokKind::kFloat);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 1000);
  EXPECT_DOUBLE_EQ(toks[3].float_value, 0.025);
}

TEST(LexerTest, DotAfterNumberIsFieldAccessNotDecimal) {
  // res().PCIe after an int: `10/res().PCIe` must keep '.' separate.
  auto toks = lex("10 .PCIe");
  EXPECT_EQ(toks[0].kind, TokKind::kInt);
  EXPECT_TRUE(toks[1].is_punct("."));
}

TEST(LexerTest, StringEscapes) {
  auto toks = lex(R"("a\"b\n")");
  EXPECT_EQ(toks[0].text, "a\"b\n");
}

TEST(LexerTest, TwoCharOperators) {
  auto toks = lex("== <= >= <> < >");
  EXPECT_TRUE(toks[0].is_punct("=="));
  EXPECT_TRUE(toks[1].is_punct("<="));
  EXPECT_TRUE(toks[2].is_punct(">="));
  EXPECT_TRUE(toks[3].is_punct("<>"));
  EXPECT_TRUE(toks[4].is_punct("<"));
  EXPECT_TRUE(toks[5].is_punct(">"));
}

TEST(LexerTest, BlockComments) {
  auto toks = lex("a /* x \n y */ b");
  EXPECT_TRUE(toks[0].is_ident("a"));
  EXPECT_TRUE(toks[1].is_ident("b"));
}

TEST(LexerTest, ThrowsOnUnterminatedString) {
  EXPECT_THROW(lex("\"abc"), LexError);
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, ParsesHeavyHitterProgram) {
  Program p = parse_program(kHeavyHitterSource);
  EXPECT_EQ(p.functions.size(), 3u);
  ASSERT_EQ(p.machines.size(), 1u);
  const MachineDecl& m = p.machines[0];
  EXPECT_EQ(m.name, "HH");
  EXPECT_EQ(m.places.size(), 1u);
  EXPECT_EQ(m.states.size(), 2u);
  EXPECT_EQ(m.machine_events.size(), 2u);
  // pollStats, threshold, hitterAction, hitters, prevBytes.
  EXPECT_EQ(m.vars.size(), 5u);
}

TEST(ParserTest, ExternalAndTriggerFlags) {
  Program p = parse_program(kHeavyHitterSource);
  const auto& vars = p.machines[0].vars;
  EXPECT_TRUE(vars[0].trigger.has_value());
  EXPECT_EQ(*vars[0].trigger, TriggerType::kPoll);
  EXPECT_TRUE(vars[1].external);
  EXPECT_EQ(vars[1].name, "threshold");
}

TEST(ParserTest, PlaceDirectiveForms) {
  Program p = parse_program(R"(
    machine M {
      place all;
      place any 3, 8;
      place any receiver srcIP "10.1.1.4" and dstIP "10.0.1.0/24" range == 1;
      place all midpoint range == 0;
      state s { }
    }
  )");
  const auto& pls = p.machines[0].places;
  ASSERT_EQ(pls.size(), 4u);
  EXPECT_EQ(pls[0].mode, PlaceDirective::Mode::kEverywhere);
  EXPECT_TRUE(pls[0].all);
  EXPECT_EQ(pls[1].mode, PlaceDirective::Mode::kSwitchList);
  EXPECT_FALSE(pls[1].all);
  EXPECT_EQ(pls[1].switch_ids.size(), 2u);
  EXPECT_EQ(pls[2].mode, PlaceDirective::Mode::kRange);
  EXPECT_EQ(pls[2].anchor, PlaceDirective::Anchor::kReceiver);
  EXPECT_TRUE(pls[2].path_filter != nullptr);
  EXPECT_EQ(pls[2].range_op, BinOp::kEq);
  EXPECT_EQ(pls[3].anchor, PlaceDirective::Anchor::kMidpoint);
  EXPECT_TRUE(pls[3].path_filter == nullptr);
}

TEST(ParserTest, EventTriggerKinds) {
  Program p = parse_program(R"(
    machine M {
      state s {
        when (enter) do { }
        when (exit) do { }
        when (realloc) do { }
        when (tick as t) do { }
        when (recv long x from harvester) do { }
        when (recv list l from Other) do { }
      }
      time tick;
    }
  )");
  const auto& evs = p.machines[0].states[0].events;
  ASSERT_EQ(evs.size(), 6u);
  EXPECT_EQ(evs[0].kind, EventDecl::TriggerKind::kEnter);
  EXPECT_EQ(evs[1].kind, EventDecl::TriggerKind::kExit);
  EXPECT_EQ(evs[2].kind, EventDecl::TriggerKind::kRealloc);
  EXPECT_EQ(evs[3].kind, EventDecl::TriggerKind::kVarTrigger);
  EXPECT_EQ(evs[3].var, "tick");
  EXPECT_EQ(evs[3].as_var, "t");
  EXPECT_EQ(evs[4].kind, EventDecl::TriggerKind::kRecv);
  EXPECT_TRUE(evs[4].from_harvester);
  EXPECT_EQ(evs[5].from_machine, "Other");
}

TEST(ParserTest, OperatorPrecedence) {
  // 1 + 2 * 3 == 7 must parse as (1 + (2*3)) == 7.
  Program p = parse_program(R"(
    machine M { bool b; state s { when (enter) do { b = 1 + 2 * 3 == 7; } } }
  )");
  // Evaluate the parsed expression to confirm grouping.
  auto c = compile_machine(p, "M");
  FakeHost host;
  Vm vm(c, &host);
  Registers regs(c);
  regs.bind(0, Value(false));
  vm.run(c.code->states[0].handlers[0], regs);
  EXPECT_TRUE(regs.var("b")->as_bool());
}

TEST(ParserTest, SyntaxErrorsCarryLocation) {
  try {
    parse_program("machine M { state s { when enter) do {} } }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.loc().line, 0);
  }
}

TEST(ParserTest, RejectsExternalTrigger) {
  EXPECT_THROW(parse_program("machine M { external poll p; state s {} }"),
               ParseError);
}

// --- Compilation ---------------------------------------------------------------

TEST(CompileTest, FlattensHeavyHitter) {
  auto c = compile(kHeavyHitterSource, "HH");
  EXPECT_EQ(c.machine.initial_state, "observe");
  ASSERT_EQ(c.machine.states.size(), 2u);
  // Machine-level recv handlers are merged into both states.
  const CompiledState* obs = c.machine.state("observe");
  ASSERT_TRUE(obs);
  EXPECT_EQ(obs->events.size(), 3u);  // poll + 2 machine-level recv
  const CompiledState* det = c.machine.state("HHdetected");
  ASSERT_TRUE(det);
  EXPECT_EQ(det->events.size(), 3u);  // enter + 2 machine-level recv
}

TEST(CompileTest, InheritanceOverridesStates) {
  auto c = compile(R"(
    machine Base {
      long x = 1;
      state a { when (enter) do { x = 10; } }
      state b { }
    }
    machine Child extends Base {
      state b { when (enter) do { x = 20; } }
      state c { }
    }
  )",
                   "Child");
  EXPECT_EQ(c.machine.states.size(), 3u);
  EXPECT_EQ(c.machine.initial_state, "a");  // base-most first state
  EXPECT_EQ(c.machine.state("b")->events.size(), 1u);  // overridden
  EXPECT_TRUE(c.machine.var("x"));
}

TEST(CompileTest, RejectsVariableOverride) {
  EXPECT_THROW(compile(R"(
    machine Base { long x; state s { } }
    machine Child extends Base { long x; state s { } }
  )",
                       "Child"),
               CompileError);
}

TEST(CompileTest, RejectsInheritanceCycle) {
  EXPECT_THROW(compile(R"(
    machine A extends B { state s { } }
    machine B extends A { state s { } }
  )",
                       "A"),
               CompileError);
}

TEST(CompileTest, RejectsUnknownParent) {
  EXPECT_THROW(compile("machine A extends Nope { state s { } }", "A"),
               CompileError);
}

TEST(CompileTest, StateEventOverridesMachineEvent) {
  auto c = compile(R"(
    machine M {
      long x = 0;
      state s {
        when (recv long v from harvester) do { x = 1; }
      }
      state t { }
      when (recv long v from harvester) do { x = 2; }
    }
  )",
                   "M");
  EXPECT_EQ(c.machine.state("s")->events.size(), 1u);  // overridden, not both
  EXPECT_EQ(c.machine.state("t")->events.size(), 1u);  // machine-level applies
}

TEST(CompileTest, RejectsBadUtilBody) {
  EXPECT_THROW(compile(R"(
    machine M { state s {
      util (res) { while (true) { return 1; } }
    } }
  )",
                       "M"),
               CompileError);
  EXPECT_THROW(compile(R"(
    machine M { state s {
      util (res) { return getHH(res); }
    } }
  )",
                       "M"),
               CompileError);
}

TEST(CompileTest, RejectsUnknownTransitTarget) {
  EXPECT_THROW(compile(R"(
    machine M { state s { when (enter) do { transit nowhere; } } }
  )",
                       "M"),
               CompileError);
}

TEST(CompileTest, RejectsUninitializedPollVar) {
  EXPECT_THROW(compile("machine M { poll p; state s { } }", "M"),
               CompileError);
}

// --- Seed VM --------------------------------------------------------------------

struct InterpFixture {
  Compiled c;
  FakeHost host;
  std::unique_ptr<Vm> vm;
  std::unique_ptr<Registers> regs;  // the machine's register file

  explicit InterpFixture(const std::string& src, const std::string& name)
      : c(compile(src, name)) {
    vm = std::make_unique<Vm>(c.machine, &host);
    regs = std::make_unique<Registers>(c.machine);
    for (std::size_t i = 0; i < c.machine.vars.size(); ++i) {
      const VarDecl* v = c.machine.vars[i];
      Value init =
          v->trigger ? Value(TriggerSpec{}) : default_value(v->type);
      if (v->init) init = vm->eval(c.machine.code->var_inits[i], *regs);
      regs->bind(i, std::move(init));
    }
  }

  // Runs handler `ev_index` of a state with `binding` in its binding slot.
  void run_event(const std::string& state_name, std::size_t ev_index,
                 const Value& binding = Value()) {
    const int st = c.machine.code->state_index(state_name);
    vm->run(c.machine.code->states[static_cast<std::size_t>(st)]
                .handlers[ev_index],
            *regs, binding);
  }
  const Value* var(const std::string& name) const { return regs->var(name); }
};

TEST(InterpTest, HeavyHitterDetectsAndReacts) {
  InterpFixture f(kHeavyHitterSource, "HH");

  // First poll: baseline of 500 KB on each port — below threshold delta
  // only because prev is empty… delta = 500K < 1M threshold → no HH.
  StatsValue stats1;
  stats1.entries->push_back({"port0", 0, 0, 500, 500'000});
  stats1.entries->push_back({"port1", 1, 0, 500, 500'000});
  f.run_event("observe", 0, Value(stats1));
  EXPECT_FALSE(f.host.transit.has_value());

  // Second poll: port1 delta = 2 MB ≥ 1 MB threshold → HH detected.
  StatsValue stats2;
  stats2.entries->push_back({"port0", 0, 0, 600, 600'000});
  stats2.entries->push_back({"port1", 1, 0, 3000, 2'500'000});
  f.run_event("observe", 0, Value(stats2));
  ASSERT_TRUE(f.host.transit.has_value());
  EXPECT_EQ(*f.host.transit, "HHdetected");
  const auto& hitters = *f.var("hitters")->as_list();
  ASSERT_EQ(hitters.size(), 1u);
  EXPECT_EQ(hitters[0].as_int(), 1);  // port1

  // Enter HHdetected: sends hitters to harvester, installs TCAM rules,
  // transits back to observe.
  f.host.transit.reset();
  f.run_event("HHdetected", 0);
  ASSERT_EQ(f.host.sent.size(), 1u);
  EXPECT_TRUE(f.host.sent[0].second.to_harvester);
  ASSERT_EQ(f.host.added_rules.size(), 1u);
  EXPECT_EQ(f.host.transit, "observe");
}

TEST(InterpTest, HarvesterRecvUpdatesThreshold) {
  InterpFixture f(kHeavyHitterSource, "HH");
  // Event 1 is the first machine-level recv (long newTh).
  f.run_event("observe", 1, Value(std::int64_t{42}));
  EXPECT_EQ(f.var("threshold")->as_int(), 42);
}

TEST(InterpTest, PollIvalUsesResources) {
  InterpFixture f(kHeavyHitterSource, "HH");
  // pollStats.ival = 10/res().PCIe with PCIe = 4 → 2.5 s.
  const auto& trig = f.var("pollStats")->as_trigger();
  EXPECT_DOUBLE_EQ(trig.ival_seconds, 2.5);
  EXPECT_EQ(trig.what.iface_footprint(), net::Filter::kAllIfaces);
}

TEST(InterpTest, TriggerReassignmentNotifiesHost) {
  InterpFixture f(R"(
    machine M {
      poll p = Poll { .ival = 1, .what = port ANY };
      state s {
        when (enter) do {
          p = Poll { .ival = 0.5, .what = port ANY };
        }
      }
    }
  )",
                  "M");
  f.run_event("s", 0);
  ASSERT_EQ(f.host.trigger_updates.size(), 1u);
  EXPECT_EQ(f.host.trigger_updates[0], "p");
  EXPECT_DOUBLE_EQ(f.var("p")->as_trigger().ival_seconds, 0.5);
}

TEST(InterpTest, FilterExpressionsCombine) {
  InterpFixture f(R"(
    machine M {
      filter f;
      state s {
        when (enter) do {
          f = srcIP "10.1.0.0/16" and (port 80 or port 22);
        }
      }
    }
  )",
                  "M");
  f.run_event("s", 0);
  const auto& filter = f.var("f")->as_filter();
  net::PacketHeader h{*net::Ipv4::parse("10.1.2.3"),
                      *net::Ipv4::parse("11.0.0.1"),
                      4000,
                      22,
                      net::Proto::kTcp,
                      {},
                      100};
  EXPECT_TRUE(filter.matches(h));
  h.dst_port = 443;
  EXPECT_FALSE(filter.matches(h));
}

TEST(InterpTest, PacketFieldsAccessible) {
  InterpFixture f(R"(
    machine M {
      probe pr = Probe { .ival = 0.001, .what = port 22 };
      long count = 0;
      string lastSrc;
      state s {
        when (pr as pkt) do {
          if (pkt.syn and pkt.dstPort == 22) then {
            count = count + 1;
            lastSrc = pkt.srcIP;
          }
        }
      }
    }
  )",
                  "M");
  net::PacketHeader h{*net::Ipv4::parse("10.0.0.5"),
                      *net::Ipv4::parse("10.1.0.9"),
                      40000,
                      22,
                      net::Proto::kTcp,
                      {.syn = true},
                      60};
  f.run_event("s", 0, Value(h));
  EXPECT_EQ(f.var("count")->as_int(), 1);
  EXPECT_EQ(f.var("lastSrc")->as_string(), "10.0.0.5");
}

TEST(InterpTest, WhileLoopGuardTrips) {
  InterpFixture f(R"(
    machine M { state s { when (enter) do { while (true) { } } } }
  )",
                  "M");
  EXPECT_THROW(f.run_event("s", 0), EvalError);
}

TEST(InterpTest, DivisionByZeroRaises) {
  InterpFixture f(R"(
    machine M { long x; state s { when (enter) do { x = 1/0; } } }
  )",
                  "M");
  EXPECT_THROW(f.run_event("s", 0), EvalError);
}

TEST(InterpTest, UndefinedVariableRaises) {
  InterpFixture f(R"(
    machine M { long x; state s { when (enter) do { x = nope; } } }
  )",
                  "M");
  EXPECT_THROW(f.run_event("s", 0), EvalError);
}

TEST(InterpTest, ExecReachesHost) {
  InterpFixture f(R"(
    machine M { state s { when (enter) do {
      exec("python3 svr.py --iters 10");
    } } }
  )",
                  "M");
  f.run_event("s", 0);
  ASSERT_EQ(f.host.execs.size(), 1u);
  EXPECT_EQ(f.host.execs[0], "python3 svr.py --iters 10");
}

TEST(InterpTest, TcamRuleRoundTrip) {
  InterpFixture f(R"(
    machine M {
      rule r;
      bool found;
      state s { when (enter) do {
        addTCAMRule(Rule { .pattern = port 443, .act = action_drop() });
        r = getTCAMRule(port 443);
        found = r.act == action_drop();
        removeTCAMRule(port 443);
      } }
    }
  )",
                  "M");
  f.run_event("s", 0);
  EXPECT_TRUE(f.var("found")->as_bool());
  ASSERT_EQ(f.host.removed.size(), 1u);
}

// kBuiltinNames is the interpreter's dispatch: a call to a listed name runs
// the builtin even where the program defines a function of that name, and
// a call to any other name runs the program's function.
TEST(InterpTest, BuiltinNamesAreTheNamesCallsDispatch) {
  auto runs_program_function = [](std::string_view name) {
    const std::string fn(name);
    InterpFixture f("func long " + fn + "() { return 987654321; }\n" +
                        "machine M { long got = 0; state s {\n" +
                        "  when (enter) do { got = " + fn + "(); } } }",
                    "M");
    try {
      f.run_event("s", 0);
    } catch (const EvalError&) {
      return false;  // the builtin rejected the empty argument list
    }
    const Value* got = f.var("got");
    return got->is_int() && got->as_int() == 987654321;
  };
  for (std::string_view name : kBuiltinNames) {
    EXPECT_TRUE(is_builtin(name)) << name;
    EXPECT_FALSE(runs_program_function(name)) << name;
  }
  for (std::string_view name : {"helper", "Log", "logs", "resv", "to_int"}) {
    EXPECT_FALSE(is_builtin(name)) << name;
    EXPECT_TRUE(runs_program_function(name)) << name;
  }
}

// --- Seed core -------------------------------------------------------------

// Drives the seed core through a host that serves no switch and records
// what the core reports through its hooks.
class FakeSeed : public SeedCore {
 public:
  explicit FakeSeed(const CompiledMachine& m) : SeedCore(m) { bind({}); }

  int handlers = 0;
  int entries = 0;
  int cuts = 0;
  std::vector<std::pair<Site, int>> errors;  // site, source line
  std::vector<std::string> error_texts;
  std::vector<Value> sent;

  ResourcesValue resources() override { return {1, 128, 32, 1}; }
  void add_tcam_rule(const asic::TcamRule&) override {}
  void remove_tcam_rule(const net::Filter&) override {}
  std::optional<asic::TcamRule> get_tcam_rule(const net::Filter&) override {
    return std::nullopt;
  }
  void send(const Value& payload, const SendTarget&) override {
    sent.push_back(payload);
  }
  void exec(const std::string&) override {}
  void trigger_updated(const std::string&) override {}
  std::int64_t switch_id() override { return 7; }
  std::int64_t now_ms() override { return 0; }
  void log(const std::string&) override {}

 private:
  void handler_ran() override { ++handlers; }
  void handler_failed(Site site, const EvalError& e) override {
    errors.emplace_back(site, e.loc().line);
    error_texts.emplace_back(e.what());
  }
  void state_entered() override { ++entries; }
  void chain_cut() override { ++cuts; }
};

TEST(SeedCoreTest, PingPongTransitChainIsCutAndTheNextEventRuns) {
  auto c = compile(R"(
    machine M {
      long got = 0;
      state a { when (enter) do { transit b; } }
      state b { when (enter) do { transit a; } }
      when (recv long x from harvester) do { got = x; }
    }
  )",
                   "M");
  FakeSeed seed(c.machine);
  seed.start();
  EXPECT_EQ(seed.cuts, 1);
  EXPECT_EQ(seed.entries, SeedCore::kMaxTransitChain);
  EXPECT_EQ(seed.current_state(), "a");  // an even number of hops from a
  EXPECT_EQ(seed.handlers, 1);           // a's enter handler at start

  seed.on_message(Value(std::int64_t{42}), /*from_harvester=*/true, "");
  EXPECT_EQ(seed.handlers, 2);
  EXPECT_EQ(seed.variable("got")->as_int(), 42);
  EXPECT_EQ(seed.cuts, 1);
  EXPECT_EQ(seed.entries, SeedCore::kMaxTransitChain);
}

TEST(SeedCoreTest, EnterAndExitErrorsAreReportedAndTheTransitCompletes) {
  auto c = compile(R"(
    machine M {
      long x;
      state s {
        when (exit) do { x = 1/0; }
        when (recv long go from harvester) do { transit t; }
      }
      state t { when (enter) do { x = 2/0; } }
    }
  )",
                   "M");
  FakeSeed seed(c.machine);
  seed.start();
  seed.on_message(Value(std::int64_t{1}), /*from_harvester=*/true, "");
  using Site = SeedCore::Site;
  EXPECT_EQ(seed.errors, (std::vector<std::pair<Site, int>>{
                             {Site::kExit, 5}, {Site::kEnter, 8}}));
  EXPECT_EQ(seed.current_state(), "t");
  EXPECT_EQ(seed.entries, 1);
  EXPECT_EQ(seed.cuts, 0);
}

TEST(SeedCoreTest, EventsBeforeStartAndAfterStopRunNoHandler) {
  auto c = compile(R"(
    machine M {
      long n = 0;
      time tick = 1.0;
      state s {
        when (tick as t) do { n = n + 1; }
        when (realloc) do { n = n + 1; }
        when (recv long x from harvester) do { n = n + x; }
      }
    }
  )",
                   "M");
  FakeSeed seed(c.machine);
  auto deliver_all = [&] {
    seed.on_time("tick");
    seed.on_realloc();
    seed.on_message(Value(std::int64_t{1}), /*from_harvester=*/true, "");
  };
  deliver_all();
  EXPECT_EQ(seed.handlers, 0);
  EXPECT_EQ(seed.variable("n")->as_int(), 0);

  seed.start();
  deliver_all();
  EXPECT_EQ(seed.handlers, 3);
  EXPECT_EQ(seed.variable("n")->as_int(), 3);

  seed.stop();
  deliver_all();
  EXPECT_EQ(seed.handlers, 3);
  EXPECT_EQ(seed.variable("n")->as_int(), 3);
}

// Each handler passes `almanac_tool lint --werror` yet applies a builtin
// or a field to a value of the wrong type. Each raises an EvalError naming
// the builtin or field, the core reports it, and the seed keeps running.
TEST(SeedCoreTest, TypeErrorsInBuiltinsAndFieldsAreReportedNotFatal) {
  auto c = compile(R"(
    machine M {
      long n = 0;
      list l;
      time a = 1.0;
      time b = 1.0;
      time c = 1.0;
      time d = 1.0;
      state s {
        when (a as t) do { n = list_size(n); }
        when (b as t) do { n = list_get(n, 0); }
        when (c as t) do { n = stats_size(l); }
        when (d as t) do { n = to_long(res().vcpu); }
        when (recv long x from harvester) do { n = x; }
      }
    }
  )",
                   "M");
  FakeSeed seed(c.machine);
  seed.start();
  for (const char* var : {"a", "b", "c", "d"}) seed.on_time(var);
  using Site = SeedCore::Site;
  EXPECT_EQ(seed.errors, (std::vector<std::pair<Site, int>>{
                             {Site::kHandler, 10},
                             {Site::kHandler, 11},
                             {Site::kHandler, 12},
                             {Site::kHandler, 13}}));
  ASSERT_EQ(seed.error_texts.size(), 4u);
  EXPECT_NE(seed.error_texts[0].find("list_size: expected list, got long"),
            std::string::npos);
  EXPECT_NE(seed.error_texts[1].find("list_get: expected list, got long"),
            std::string::npos);
  EXPECT_NE(seed.error_texts[2].find("stats_size: expected stats, got list"),
            std::string::npos);
  EXPECT_NE(seed.error_texts[3].find("unknown resource field: vcpu"),
            std::string::npos);

  seed.on_message(Value(std::int64_t{42}), /*from_harvester=*/true, "");
  EXPECT_EQ(seed.handlers, 5);
  EXPECT_EQ(seed.errors.size(), 4u);
  EXPECT_EQ(seed.variable("n")->as_int(), 42);
}

// A state local is bound on entry to its state, before the state's enter
// handlers run, and afresh on every entry; a resumed seed continues with
// the locals of its snapshot.
TEST(SeedCoreTest, StateLocalsLiveWhileTheirStateIsResident) {
  auto c = compile(R"(
    machine M {
      time tick = 1.0;
      state s {
        long n = 5;
        when (enter) do { send n + 100 to harvester; }
        when (tick as t) do { n = n + 1; send n to harvester; }
        when (recv string go from harvester) do { transit away; }
      }
      state away {
        when (enter) do { transit s; }
      }
    }
  )",
                   "M");
  auto longs = [](const std::vector<Value>& sent) {
    std::vector<std::int64_t> out;
    for (const auto& v : sent) out.push_back(v.as_int());
    return out;
  };
  FakeSeed seed(c.machine);
  seed.start();
  seed.on_time("tick");
  seed.on_time("tick");
  EXPECT_EQ(longs(seed.sent), (std::vector<std::int64_t>{105, 6, 7}));

  // Out to `away` and straight back: n starts again from its initializer.
  seed.on_message(Value("go"), /*from_harvester=*/true, "");
  seed.on_time("tick");
  EXPECT_EQ(longs(seed.sent), (std::vector<std::int64_t>{105, 6, 7, 105, 6}));
  EXPECT_TRUE(seed.errors.empty());

  FakeSeed moved(c.machine);
  moved.resume(seed.current_state(), seed.machine_vars(), seed.state_locals());
  moved.on_time("tick");
  EXPECT_EQ(longs(moved.sent), (std::vector<std::int64_t>{7}));
  EXPECT_EQ(moved.variable("n")->as_int(), 7);
}

// --- Utility analysis -------------------------------------------------------

TEST(UtilityAnalysisTest, HeavyHitterObserveState) {
  auto c = compile(kHeavyHitterSource, "HH");
  const CompiledState* obs = c.machine.state("observe");
  ASSERT_TRUE(obs->util);
  auto ua = analyze_utility(*obs->util);
  ASSERT_EQ(ua.variants.size(), 1u);
  const auto& v = ua.variants[0];
  // C^s = {r_vCPU - 1, r_RAM - 100}; u^s = min(r_vCPU, r_PCIe).
  ASSERT_EQ(v.constraints.size(), 2u);
  EXPECT_DOUBLE_EQ(v.constraints[0].c0, -1);
  EXPECT_DOUBLE_EQ(v.constraints[0].coeff[kVCpu], 1);
  EXPECT_DOUBLE_EQ(v.constraints[1].c0, -100);
  EXPECT_DOUBLE_EQ(v.constraints[1].coeff[kRam], 1);
  EXPECT_EQ(v.util_min_terms.size(), 2u);

  EXPECT_TRUE(v.feasible({2, 256, 0, 4}));
  EXPECT_FALSE(v.feasible({0.5, 256, 0, 4}));
  EXPECT_DOUBLE_EQ(v.utility({2, 256, 0, 4}), 2);   // min(2, 4)
  EXPECT_DOUBLE_EQ(v.utility({8, 256, 0, 3}), 3);   // min(8, 3)
}

TEST(UtilityAnalysisTest, ConstantUtility) {
  auto c = compile(kHeavyHitterSource, "HH");
  const CompiledState* det = c.machine.state("HHdetected");
  auto ua = analyze_utility(*det->util);
  ASSERT_EQ(ua.variants.size(), 1u);
  EXPECT_TRUE(ua.variants[0].constraints.empty());
  EXPECT_DOUBLE_EQ(ua.variants[0].utility({0, 0, 0, 0}), 100);
}

TEST(UtilityAnalysisTest, OrConditionSplitsVariants) {
  auto c = compile(R"(
    machine M { state s {
      util (r) {
        if (r.vCPU >= 2 or r.RAM >= 512) then { return 10; }
      }
    } }
  )",
                   "M");
  auto ua = analyze_utility(*c.machine.state("s")->util);
  EXPECT_EQ(ua.variants.size(), 2u);
  EXPECT_DOUBLE_EQ(ua.utility({2, 0, 0, 0}), 10);
  EXPECT_DOUBLE_EQ(ua.utility({0, 512, 0, 0}), 10);
  EXPECT_DOUBLE_EQ(ua.utility({0, 0, 0, 0}), 0);
}

TEST(UtilityAnalysisTest, MultipleIfsYieldMultipleVariants) {
  auto c = compile(R"(
    machine M { state s {
      util (r) {
        if (r.vCPU >= 4) then { return 2 * r.vCPU; }
        if (r.vCPU >= 1) then { return r.vCPU; }
      }
    } }
  )",
                   "M");
  auto ua = analyze_utility(*c.machine.state("s")->util);
  EXPECT_EQ(ua.variants.size(), 2u);
  EXPECT_DOUBLE_EQ(ua.utility({4, 0, 0, 0}), 8);  // best variant wins
  EXPECT_DOUBLE_EQ(ua.utility({2, 0, 0, 0}), 2);
}

TEST(UtilityAnalysisTest, MaxSplitsWithDominanceConstraints) {
  auto c = compile(R"(
    machine M { state s {
      util (r) { return max(r.vCPU, r.PCIe); }
    } }
  )",
                   "M");
  auto ua = analyze_utility(*c.machine.state("s")->util);
  EXPECT_EQ(ua.variants.size(), 2u);
  EXPECT_DOUBLE_EQ(ua.utility({5, 0, 0, 2}), 5);
  EXPECT_DOUBLE_EQ(ua.utility({1, 0, 0, 7}), 7);
}

TEST(UtilityAnalysisTest, RejectsNonlinearProduct) {
  auto c = compile(R"(
    machine M { state s {
      util (r) { return r.vCPU * r.RAM; }
    } }
  )",
                   "M");
  EXPECT_THROW(analyze_utility(*c.machine.state("s")->util), CompileError);
}

TEST(UtilityAnalysisTest, ArithmeticOnMinStaysConcave) {
  auto c = compile(R"(
    machine M { state s {
      util (r) { return 2 * min(r.vCPU, r.PCIe) + 1; }
    } }
  )",
                   "M");
  auto ua = analyze_utility(*c.machine.state("s")->util);
  ASSERT_EQ(ua.variants.size(), 1u);
  EXPECT_DOUBLE_EQ(ua.utility({3, 0, 0, 5}), 7);  // 2*3+1
}

TEST(UtilityAnalysisTest, NestedMinMaxSplitsOnTheMaxOnly) {
  auto c = compile(R"(
    machine M { state s {
      util (r) { return min(r.vCPU, max(r.RAM, r.PCIe)); }
    } }
  )",
                   "M");
  auto ua = analyze_utility(*c.machine.state("s")->util);
  // The inner max or-splits into two alternatives (each carrying its
  // dominance constraint); the outer min stays within each variant as an
  // extra min term.
  ASSERT_EQ(ua.variants.size(), 2u);
  for (const auto& v : ua.variants) {
    EXPECT_EQ(v.util_min_terms.size(), 2u);
    EXPECT_EQ(v.constraints.size(), 1u);  // RAM >= PCIe or PCIe >= RAM
  }
  EXPECT_DOUBLE_EQ(ua.utility({5, 3, 0, 1}), 3);  // min(5, max(3, 1))
  EXPECT_DOUBLE_EQ(ua.utility({2, 1, 0, 9}), 2);  // min(2, max(1, 9))
  EXPECT_DOUBLE_EQ(ua.utility({9, 1, 0, 4}), 4);  // min(9, max(1, 4))
}

TEST(UtilityAnalysisTest, InheritedStateOverridesUtilCallback) {
  // The child's state replaces the parent's wholesale, util callback
  // included: analysis of the flattened machine must see the child's
  // constant 42, not the parent's constrained linear form.
  const char* src = R"(
    machine Base {
      poll p = Poll { .ival = 0.5, .what = port ANY };
      state s {
        util (r) { if (r.vCPU >= 1) then { return r.vCPU; } }
        when (p as x) do { send stats_size(x) to harvester; }
      }
    }
    machine Derived extends Base {
      state s {
        util (r) { return 42; }
        when (p as x) do { send stats_size(x) to harvester; }
      }
    }
  )";
  auto base = compile(src, "Base");
  auto base_ua = analyze_utility(*base.machine.state("s")->util);
  ASSERT_EQ(base_ua.variants.size(), 1u);
  EXPECT_EQ(base_ua.variants[0].constraints.size(), 1u);

  auto derived = compile(src, "Derived");
  auto ua = analyze_utility(*derived.machine.state("s")->util);
  ASSERT_EQ(ua.variants.size(), 1u);
  EXPECT_TRUE(ua.variants[0].constraints.empty());
  EXPECT_DOUBLE_EQ(ua.variants[0].utility({0, 0, 0, 0}), 42);
}

bool same_bits(const std::vector<Poly>& a, const std::vector<Poly>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i].c0, &b[i].c0, sizeof a[i].c0) != 0 ||
        std::memcmp(a[i].coeff.data(), b[i].coeff.data(),
                    sizeof a[i].coeff) != 0)
      return false;
  return true;
}

bool same_bits(const UtilityAnalysis& a, const UtilityAnalysis& b) {
  if (a.variants.size() != b.variants.size()) return false;
  for (std::size_t i = 0; i < a.variants.size(); ++i)
    if (!same_bits(a.variants[i].constraints, b.variants[i].constraints) ||
        !same_bits(a.variants[i].util_min_terms,
                   b.variants[i].util_min_terms))
      return false;
  return true;
}

TEST(UtilityAnalysisTest, CompiledStatesStoreWhatTheAnalysisDerives) {
  int states = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(FARM_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".alm") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const Program program = parse_program(text.str());
    for (const auto& mdecl : program.machines) {
      const CompiledMachine cm = compile_machine(program, mdecl.name);
      for (const auto& st : cm.states) {
        SCOPED_TRACE(mdecl.name + "." + st.name);
        ++states;
        const UtilityAnalysis* stored = st.utility_analysis();
        ASSERT_NE(stored, nullptr);
        EXPECT_TRUE(same_bits(*stored, st.util ? analyze_utility(*st.util)
                                               : default_utility()));
      }
    }
  }
  EXPECT_GT(states, 0);
}

TEST(UtilityAnalysisTest, UnanalyzableUtilStoresTheErrorUt001Reports) {
  const char* src = R"(
    machine M {
      place all;
      state s {
        util (r) { return r.vCPU * r.RAM; }
      }
    }
  )";
  auto c = compile(src, "M");  // compiles: the error is stored
  const CompiledState* s = c.machine.state("s");
  EXPECT_EQ(s->utility_analysis(), nullptr);
  const CompileError* stored = s->utility_error();
  ASSERT_NE(stored, nullptr);
  try {
    analyze_utility(*s->util);
    ADD_FAILURE() << "the util analyzed";
  } catch (const CompileError& fresh) {
    EXPECT_STREQ(stored->what(), fresh.what());
    EXPECT_EQ(stored->loc().line, fresh.loc().line);
    EXPECT_EQ(stored->loc().column, fresh.loc().column);
  }

  int ut001 = 0;
  for (const auto& d : verify::verify_program(c.program)) {
    if (d.code != "UT001") continue;
    ++ut001;
    EXPECT_EQ(d.message, "util of state 's' is not statically analyzable: " +
                             std::string(stored->what()));
    EXPECT_EQ(d.loc.line, stored->loc().line);
    EXPECT_EQ(d.loc.column, stored->loc().column);
  }
  EXPECT_EQ(ut001, 1);
}

// --- Poll analysis -------------------------------------------------------------

TEST(PollAnalysisTest, InverseLinearIval) {
  auto c = compile(kHeavyHitterSource, "HH");
  Registers env = static_machine_env(c.machine);
  auto polls = analyze_polls(c.machine, env, {1, 128, 16, 2});
  ASSERT_EQ(polls.size(), 1u);
  const auto& pa = polls[0];
  EXPECT_EQ(pa.var, "pollStats");
  EXPECT_TRUE(pa.inv_linear);
  // ival = 10 / r_PCIe → 1/ival = r_PCIe / 10.
  EXPECT_DOUBLE_EQ(pa.inv_ival.coeff[kPcie], 0.1);
  EXPECT_DOUBLE_EQ(pa.ival_at({0, 0, 0, 4}), 2.5);
}

TEST(PollAnalysisTest, ConstantIvalFallback) {
  auto c = compile(R"(
    machine M {
      poll p = Poll { .ival = 0.01, .what = port 80 };
      state s { }
    }
  )",
                   "M");
  Registers env(c.machine);
  auto polls = analyze_polls(c.machine, env, {1, 1, 1, 1});
  ASSERT_EQ(polls.size(), 1u);
  EXPECT_TRUE(polls[0].inv_linear);  // constants are trivially linear
  EXPECT_DOUBLE_EQ(polls[0].ival_at({0, 0, 0, 0}), 0.01);
  EXPECT_EQ(polls[0].subjects.size(), 1u);
}

TEST(PollAnalysisTest, MissingIvalThrows) {
  // A Poll spec without .ival has no interval function to analyze; the
  // throwing front door reports it (Sickle collects it as PO001).
  auto c = compile(R"(
    machine M {
      poll p = Poll { .what = port 80 };
      state s { }
    }
  )",
                   "M");
  Registers env(c.machine);
  EXPECT_THROW(analyze_polls(c.machine, env, {1, 1, 1, 1}), CompileError);
}

TEST(PollAnalysisTest, SharedSubjectsDetectable) {
  auto c = compile(R"(
    machine M {
      poll a = Poll { .ival = 0.01, .what = port ANY };
      poll b = Poll { .ival = 0.05, .what = port ANY };
      state s { }
    }
  )",
                   "M");
  Registers env(c.machine);
  auto polls = analyze_polls(c.machine, env, {1, 1, 1, 1});
  ASSERT_EQ(polls.size(), 2u);
  EXPECT_EQ(polls[0].subjects, polls[1].subjects);  // aggregation opportunity
}

// --- Placement resolution ---------------------------------------------------

struct PlaceFixture {
  net::SpineLeaf sl =
      net::build_spine_leaf({.spines = 3, .leaves = 2, .hosts_per_leaf = 2});
  net::SdnController ctl{sl.topo};
};

TEST(PlaceResolutionTest, PlaceAllYieldsOneSeedPerSwitch) {
  PlaceFixture fx;
  auto c = compile(kHeavyHitterSource, "HH");
  Registers env(c.machine);
  auto seeds = resolve_places(c.machine, env, fx.ctl);
  EXPECT_EQ(seeds.size(), fx.sl.topo.switches().size());
  for (const auto& s : seeds) EXPECT_EQ(s.candidates.size(), 1u);
}

TEST(PlaceResolutionTest, PlaceAnyYieldsOneSeedAnywhere) {
  PlaceFixture fx;
  auto c = compile("machine M { place any; state s { } }", "M");
  Registers env(c.machine);
  auto seeds = resolve_places(c.machine, env, fx.ctl);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].candidates.size(), fx.sl.topo.switches().size());
}

TEST(PlaceResolutionTest, SwitchListRestrictsCandidates) {
  PlaceFixture fx;
  auto leaf0 = fx.sl.leaf_switches[0];
  auto leaf1 = fx.sl.leaf_switches[1];
  auto src = "machine M { place any " + std::to_string(leaf0) + ", " +
             std::to_string(leaf1) + "; state s { } }";
  auto c = compile(src, "M");
  Registers env(c.machine);
  auto seeds = resolve_places(c.machine, env, fx.ctl);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].candidates,
            (std::vector<net::NodeId>{leaf0, leaf1}));
}

TEST(PlaceResolutionTest, MidpointRangeSelectsSpines) {
  PlaceFixture fx;
  // Paths between leaf0 and leaf1 hosts have shape h-leaf-spine-leaf-h; the
  // midpoint at range 0 is the spine.
  auto src = *fx.sl.topo.node(fx.sl.hosts_by_leaf[0][0]).address;
  auto dst = *fx.sl.topo.node(fx.sl.hosts_by_leaf[1][0]).address;
  auto prog = R"(machine M {
      place all midpoint srcIP ")" + src.to_string() +
              R"(" and dstIP ")" + dst.to_string() + R"(" range == 0;
      state s { } })";
  auto c = compile(prog, "M");
  Registers env(c.machine);
  auto seeds = resolve_places(c.machine, env, fx.ctl);
  // 3 ECMP paths → 3 spine singletons.
  EXPECT_EQ(seeds.size(), 3u);
  for (const auto& s : seeds) {
    ASSERT_EQ(s.candidates.size(), 1u);
    EXPECT_TRUE(std::find(fx.sl.spine_switches.begin(),
                          fx.sl.spine_switches.end(),
                          s.candidates[0]) != fx.sl.spine_switches.end());
  }
}

TEST(PlaceResolutionTest, ReceiverRangeSelectsEgressLeaf) {
  PlaceFixture fx;
  auto src = *fx.sl.topo.node(fx.sl.hosts_by_leaf[0][0]).address;
  auto dst = *fx.sl.topo.node(fx.sl.hosts_by_leaf[1][0]).address;
  auto prog = R"(machine M {
      place any receiver srcIP ")" + src.to_string() +
              R"(" and dstIP ")" + dst.to_string() + R"(" range == 1;
      state s { } })";
  auto c = compile(prog, "M");
  Registers env(c.machine);
  auto seeds = resolve_places(c.machine, env, fx.ctl);
  // Node at distance 1 from the receiving host is always leaf1 (same for
  // all ECMP paths → dedup to one seed).
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].candidates,
            (std::vector<net::NodeId>{fx.sl.leaf_switches[1]}));
}

TEST(PlaceResolutionTest, ExternalVariableInPlacement) {
  PlaceFixture fx;
  auto c = compile("machine M { place any target; external long target = 0; state s { } }",
                   "M");
  Registers env = static_machine_env(
      c.machine,
      {{"target", Value(static_cast<std::int64_t>(fx.sl.spine_switches[1]))}});
  auto seeds = resolve_places(c.machine, env, fx.ctl);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0].candidates[0], fx.sl.spine_switches[1]);
}

}  // namespace
}  // namespace farm::almanac
