#include "almanac/opt/replay.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "almanac/seed_core.h"
#include "util/rng.h"

namespace farm::almanac::opt {

namespace {

using verify::absint::AbsVal;
using verify::absint::Analysis;

std::string rule_key(const asic::TcamRule& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " p%d a%d rl%.3f ", r.priority,
                static_cast<int>(r.action), r.rate_limit_bps);
  return r.pattern.canonical_key() + buf + r.note;
}

// The transcript host: runs the seed core the soil runtime runs
// (seed_core.h) over a deterministic in-memory host that appends every
// host effect and hook report to a transcript instead of hitting a soil.
class TranscriptSeed : public SeedCore {
 public:
  TranscriptSeed(const CompiledMachine& m,
                 const std::unordered_map<std::string, Value>& externals,
                 std::vector<std::string>& transcript)
      : SeedCore(m), transcript_(transcript) {
    bind(externals);  // may throw
  }

  void set_now_ms(std::int64_t now) { now_ms_ = now; }
  void set_alloc(const ResourcesValue& r) { alloc_ = r; }

  // --- SeedHost -------------------------------------------------------------
  ResourcesValue resources() override { return alloc_; }
  void add_tcam_rule(const asic::TcamRule& rule) override {
    transcript_.push_back("tcam+ " + rule_key(rule));
    store_[rule.pattern.canonical_key()] = rule;
  }
  void remove_tcam_rule(const net::Filter& pattern) override {
    transcript_.push_back("tcam- " + pattern.canonical_key());
    store_.erase(pattern.canonical_key());
  }
  std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) override {
    transcript_.push_back("tcam? " + pattern.canonical_key());
    auto it = store_.find(pattern.canonical_key());
    if (it == store_.end()) return std::nullopt;
    return it->second;
  }
  void send(const Value& payload, const SendTarget& target) override {
    std::string to = target.to_harvester ? "harvester" : target.machine;
    if (target.dst) to += "@" + std::to_string(*target.dst);
    transcript_.push_back("send " + to + " " + payload.to_string());
  }
  void exec(const std::string& command) override {
    transcript_.push_back("exec " + command);
  }
  void request_transit(const std::string& state) override {
    transcript_.push_back("transit-req " + state);
    SeedCore::request_transit(state);
  }
  void trigger_updated(const std::string& var) override {
    transcript_.push_back("trig " + var);
  }
  std::int64_t switch_id() override { return 7; }
  std::int64_t now_ms() override { return now_ms_; }
  void log(const std::string& message) override {
    transcript_.push_back("log " + message);
  }

 private:
  // --- SeedCore hooks -------------------------------------------------------
  void handler_ran() override {}
  void handler_failed(Site site, const EvalError& e) override {
    transcript_.push_back(std::string(site_name(site)) + "-err " + e.what());
  }
  void state_entered() override {
    transcript_.push_back("enter " + current_state());
  }
  void chain_cut() override { transcript_.push_back("chain-cut"); }

  std::vector<std::string>& transcript_;
  std::unordered_map<std::string, asic::TcamRule> store_;
  ResourcesValue alloc_{2, 512, 128, 4};
  std::int64_t now_ms_ = 1000;
};

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

ReplayReport replay_compare(const CompiledMachine& original,
                            const CompiledMachine& optimized,
                            const Analysis& analysis,
                            const ReplayOptions& opts) {
  ReplayReport rep;

  auto fail = [&](const std::string& why) {
    if (rep.divergence.empty()) rep.divergence = why;
  };

  // Envelope check on the original run: every register value must be
  // admitted by the analysis' residency abstraction of the current state.
  auto check_intervals = [&](const TranscriptSeed& a, const char* when) {
    if (!rep.intervals_ok) return;
    auto it = analysis.state_entry.find(a.current_state());
    if (it == analysis.state_entry.end()) {
      rep.intervals_ok = false;
      fail(std::string("resident in state '") + a.current_state() +
           "' which the analysis proved unreachable (" + when + ")");
      return;
    }
    for (const auto& [name, val] : a.env().own()) {
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
    std::unique_ptr<TranscriptSeed> a, b;
    try {
      a = std::make_unique<TranscriptSeed>(original, opts.externals, ta);
    } catch (const EvalError& e) {
      ta.push_back(std::string("ctor-err ") + e.what());
    }
    try {
      b = std::make_unique<TranscriptSeed>(optimized, opts.externals, tb);
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
