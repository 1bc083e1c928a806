#include "almanac/opt/replay.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "almanac/opt/transcript.h"
#include "almanac/seed_core.h"
#include "util/rng.h"

namespace farm::almanac::opt {

namespace {

using verify::absint::AbsVal;
using verify::absint::Analysis;

// Event menu drawn from the machine declaration (identical for original
// and optimized: the optimizer never touches trigger registers or recv
// signatures of surviving handlers, and only unreachable states' handlers
// disappear — which no event stream can steer either machine into).
struct EventMenu {
  std::vector<std::string> poll_vars;
  std::vector<std::string> probe_vars;
  std::vector<std::string> time_vars;
  struct RecvSpec {
    bool from_harvester;
    std::string from_machine;
  };
  std::vector<RecvSpec> recvs;
};

EventMenu build_menu(const CompiledMachine& m) {
  EventMenu menu;
  for (const auto* v : m.vars) {
    if (!v->trigger) continue;
    switch (*v->trigger) {
      case TriggerType::kPoll:
        menu.poll_vars.push_back(v->name);
        break;
      case TriggerType::kProbe:
        menu.probe_vars.push_back(v->name);
        break;
      case TriggerType::kTime:
        menu.time_vars.push_back(v->name);
        break;
    }
  }
  std::unordered_set<const EventDecl*> seen;
  for (const auto& s : m.states)
    for (const auto* ev : s.events) {
      if (!seen.insert(ev).second) continue;
      if (ev->kind != EventDecl::TriggerKind::kRecv) continue;
      menu.recvs.push_back({ev->from_harvester, ev->from_machine});
    }
  return menu;
}

Value random_payload(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return Value(rng.next_int(-100, 1000));
    case 1:
      return Value(rng.next_double(-10.0, 10.0));
    case 2:
      return Value("msg" + std::to_string(rng.next_below(8)));
    default:
      return Value(rng.next_bool(0.5));
  }
}

StatsValue random_stats(util::Rng& rng, int max_ifaces) {
  StatsValue sv;
  int n = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(max_ifaces) + 1));
  for (int i = 0; i < n; ++i) {
    StatEntry e;
    e.subject = "eth" + std::to_string(i);
    e.iface = i;
    e.rule = rng.next_below(4) == 0 ? asic::kInvalidRule
                                    : static_cast<asic::RuleId>(i + 1);
    e.packets = static_cast<std::uint64_t>(rng.next_int(0, 1'000'000));
    e.bytes = e.packets * static_cast<std::uint64_t>(rng.next_int(64, 1500));
    sv.entries->push_back(std::move(e));
  }
  return sv;
}

net::PacketHeader random_packet(util::Rng& rng) {
  net::PacketHeader p;
  p.src_ip = net::Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
  p.dst_ip = net::Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
  p.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
  p.dst_port = static_cast<std::uint16_t>(rng.next_below(1024));
  p.proto = rng.next_bool(0.7) ? net::Proto::kTcp : net::Proto::kUdp;
  p.flags.syn = rng.next_bool(0.3);
  p.flags.ack = rng.next_bool(0.5);
  p.flags.fin = rng.next_bool(0.1);
  p.size_bytes = static_cast<std::uint32_t>(rng.next_int(64, 1500));
  return p;
}

}  // namespace

ReplayRunFactory seed_core_runs() {
  return [](const CompiledMachine& m,
            const std::unordered_map<std::string, Value>& externals,
            std::vector<std::string>& transcript) {
    return std::make_unique<TranscriptSeed<SeedCore>>(m, externals,
                                                      transcript);
  };
}

ReplayReport replay_compare(const CompiledMachine& original,
                            const CompiledMachine& optimized,
                            const Analysis& analysis,
                            const ReplayOptions& opts) {
  const ReplayRunFactory runs = seed_core_runs();
  return replay_compare_runs(original, runs, optimized, runs, &analysis, opts);
}

ReplayReport replay_compare_runs(const CompiledMachine& original,
                                 const ReplayRunFactory& make_a,
                                 const CompiledMachine& optimized,
                                 const ReplayRunFactory& make_b,
                                 const Analysis* analysis,
                                 const ReplayOptions& opts) {
  ReplayReport rep;

  auto fail = [&](const std::string& why) {
    if (rep.divergence.empty()) rep.divergence = why;
  };

  // Envelope check on the original run: every register value must be
  // admitted by the analysis' residency abstraction of the current state.
  auto check_intervals = [&](const ReplayRun& a, const char* when) {
    if (!analysis || !rep.intervals_ok) return;
    auto it = analysis->state_entry.find(a.current_state());
    if (it == analysis->state_entry.end()) {
      rep.intervals_ok = false;
      fail(std::string("resident in state '") + a.current_state() +
           "' which the analysis proved unreachable (" + when + ")");
      return;
    }
    for (const auto& [name, val] : a.machine_vars()) {
      auto ft = it->second.find(name);
      if (ft == it->second.end()) continue;
      if (!ft->second.admits(val)) {
        rep.intervals_ok = false;
        fail("register '" + name + "' = " + val.to_string() +
             " escapes " + ft->second.to_string() + " in state '" +
             a.current_state() + "' (" + when + ")");
        return;
      }
    }
  };

  EventMenu menu = build_menu(original);

  for (int stream = 0; stream < opts.streams; ++stream) {
    util::Rng rng(util::derive_seed(opts.seed, stream));
    std::vector<std::string> ta, tb;
    std::unique_ptr<ReplayRun> a, b;
    try {
      a = make_a(original, opts.externals, ta);
    } catch (const EvalError& e) {
      ta.push_back(std::string("ctor-err ") + e.what());
    }
    try {
      b = make_b(optimized, opts.externals, tb);
    } catch (const EvalError& e) {
      tb.push_back(std::string("ctor-err ") + e.what());
    }

    auto compare = [&](const char* when) {
      if (!rep.identical) return false;
      if (ta != tb) {
        rep.identical = false;
        std::size_t i = 0;
        while (i < ta.size() && i < tb.size() && ta[i] == tb[i]) ++i;
        std::string orig = i < ta.size() ? ta[i] : "<nothing>";
        std::string opt = i < tb.size() ? tb[i] : "<nothing>";
        fail(std::string("transcripts diverge (") + when + ", stream " +
             std::to_string(stream) + "): original '" + orig +
             "' vs optimized '" + opt + "'");
        return false;
      }
      if (!!a != !!b) {
        rep.identical = false;
        fail(std::string("only one machine failed construction (") + when +
             ")");
        return false;
      }
      if (a && b) {
        if (a->current_state() != b->current_state()) {
          rep.identical = false;
          fail(std::string("state diverges (") + when + "): '" +
               a->current_state() + "' vs '" + b->current_state() + "'");
          return false;
        }
        ResourcesValue probe{1, 256, 64, 2};
        ResourcesValue rich{8, 4096, 1024, 8};
        if (a->utility(probe) != b->utility(probe) ||
            a->utility(rich) != b->utility(rich)) {
          rep.identical = false;
          fail(std::string("utility diverges (") + when + ") in state '" +
               a->current_state() + "'");
          return false;
        }
      }
      return true;
    };

    if (!compare("ctor")) return rep;
    if (!a || !b) continue;  // both failed identically: nothing to drive
    check_intervals(*a, "ctor");

    a->start();
    b->start();
    if (!compare("start")) return rep;
    check_intervals(*a, "start");

    std::int64_t now = 1000;
    for (int i = 0; i < opts.events_per_stream; ++i) {
      now += rng.next_int(1, 500);
      a->set_now_ms(now);
      b->set_now_ms(now);
      // Pick an event kind the machine can actually receive; realloc is
      // always deliverable.
      enum { kPoll, kProbe, kTime, kRecv, kRealloc } kind = kRealloc;
      for (int tries = 0; tries < 8; ++tries) {
        switch (rng.next_below(5)) {
          case 0:
            if (menu.poll_vars.empty()) continue;
            kind = kPoll;
            break;
          case 1:
            if (menu.probe_vars.empty()) continue;
            kind = kProbe;
            break;
          case 2:
            if (menu.time_vars.empty()) continue;
            kind = kTime;
            break;
          case 3:
            if (menu.recvs.empty()) continue;
            kind = kRecv;
            break;
          default:
            kind = kRealloc;
            break;
        }
        break;
      }
      switch (kind) {
        case kPoll: {
          const std::string& var =
              menu.poll_vars[rng.next_below(menu.poll_vars.size())];
          StatsValue sv = random_stats(rng, opts.max_ifaces);
          a->on_poll(var, sv);
          b->on_poll(var, sv);
          break;
        }
        case kProbe: {
          const std::string& var =
              menu.probe_vars[rng.next_below(menu.probe_vars.size())];
          net::PacketHeader p = random_packet(rng);
          a->on_probe(var, p);
          b->on_probe(var, p);
          break;
        }
        case kTime: {
          const std::string& var =
              menu.time_vars[rng.next_below(menu.time_vars.size())];
          a->on_time(var);
          b->on_time(var);
          break;
        }
        case kRecv: {
          const auto& spec = menu.recvs[rng.next_below(menu.recvs.size())];
          std::string from = spec.from_machine.empty()
                                 ? "peer" + std::to_string(rng.next_below(3))
                                 : spec.from_machine;
          Value payload = random_payload(rng);
          a->on_message(payload, spec.from_harvester, from);
          b->on_message(payload, spec.from_harvester, from);
          break;
        }
        case kRealloc: {
          ResourcesValue r;
          r.vCPU = rng.next_double(0.5, 8.0);
          r.RAM = rng.next_double(64, 4096);
          r.TCAM = static_cast<double>(rng.next_int(8, 1024));
          r.PCIe = rng.next_double(0.5, 8.0);
          a->set_alloc(r);
          b->set_alloc(r);
          a->on_realloc();
          b->on_realloc();
          break;
        }
      }
      ++rep.events_run;
      if (!compare("event")) return rep;
      check_intervals(*a, "event");
    }
  }
  return rep;
}

}  // namespace farm::almanac::opt
