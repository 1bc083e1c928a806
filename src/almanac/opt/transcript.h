// The replay harness's transcript host (replay.h): a seed event loop over
// a deterministic in-memory host that appends every host effect and hook
// report to a transcript instead of hitting a soil.
//
// `TranscriptSeed<Core>` runs any event loop with SeedCore's interface —
// SeedCore itself, or another core a differential test compares it with
// — and exposes it to the stream driver as a ReplayRun.
#pragma once

#include <cstdio>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "almanac/opt/replay.h"
#include "almanac/vm.h"

namespace farm::almanac::opt {

inline std::string transcript_rule_key(const asic::TcamRule& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " p%d a%d rl%.3f ", r.priority,
                static_cast<int>(r.action), r.rate_limit_bps);
  return r.pattern.canonical_key() + buf + r.note;
}

template <class Core>
class TranscriptSeed : public Core, public ReplayRun {
 public:
  using Site = typename Core::Site;

  TranscriptSeed(const CompiledMachine& m,
                 const std::unordered_map<std::string, Value>& externals,
                 std::vector<std::string>& transcript)
      : Core(m), transcript_(transcript) {
    Core::bind(externals);  // may throw
  }

  // --- ReplayRun ------------------------------------------------------------
  void set_now_ms(std::int64_t now) override { now_ms_ = now; }
  void set_alloc(const ResourcesValue& r) override { alloc_ = r; }
  void start() override { Core::start(); }
  void on_poll(const std::string& var, const StatsValue& stats) override {
    Core::on_poll(var, stats);
  }
  void on_probe(const std::string& var,
                const net::PacketHeader& packet) override {
    Core::on_probe(var, packet);
  }
  void on_time(const std::string& var) override { Core::on_time(var); }
  void on_message(const Value& payload, bool from_harvester,
                  const std::string& from_machine) override {
    Core::on_message(payload, from_harvester, from_machine);
  }
  void on_realloc() override { Core::on_realloc(); }
  const std::string& current_state() const override {
    return Core::current_state();
  }
  double utility(const ResourcesValue& r) const override {
    return Core::utility(r);
  }
  std::unordered_map<std::string, Value> machine_vars() const override {
    return Core::machine_vars();
  }

  // --- SeedHost -------------------------------------------------------------
  ResourcesValue resources() override { return alloc_; }
  void add_tcam_rule(const asic::TcamRule& rule) override {
    transcript_.push_back("tcam+ " + transcript_rule_key(rule));
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
    Core::request_transit(state);
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
  // --- Core hooks -----------------------------------------------------------
  void handler_ran() override {}
  void handler_failed(Site site, const EvalError& e) override {
    transcript_.push_back(std::string(Core::site_name(site)) + "-err " +
                          e.what());
  }
  void state_entered() override {
    transcript_.push_back("enter " + Core::current_state());
  }
  void chain_cut() override { transcript_.push_back("chain-cut"); }

  std::vector<std::string>& transcript_;
  std::unordered_map<std::string, asic::TcamRule> store_;
  ResourcesValue alloc_{2, 512, 128, 4};
  std::int64_t now_ms_ = 1000;
};

}  // namespace farm::almanac::opt
