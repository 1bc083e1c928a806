// SeedCore: the seed event loop (§II-B a), shared by every host that runs
// a machine — the soil runtime (runtime::Seed) and Winnow's replay harness
// (opt/replay.cpp), so the optimizer's equivalence check runs the dispatch
// code the simulator runs.
//
// The core owns the machine environment, the current state and the
// deferred transition. It reacts to poll snapshots, probe samples, timer
// ticks, messages and resource reallocations by running the current
// state's matching handlers. A transition requested during a handler takes
// effect when the handler finishes (transit-at-end semantics of the HH
// example): the old state's exit handlers run, then the new state's enter
// handlers, which may request the next step of the chain; a chain longer
// than kMaxTransitChain steps is cut.
//
// Every switch or network effect goes through the SeedHost interface,
// which the concrete host implements. Bookkeeping the hosts account
// differently (handler counts, error reporting, trigger re-arming after a
// state change) is reported through the protected hooks.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/interp.h"

namespace farm::almanac {

class SeedCore : public SeedHost {
 public:
  // Where a handler's EvalError was raised.
  enum class Site { kHandler, kEnter, kExit };
  static const char* site_name(Site site) {
    return site == Site::kEnter  ? "enter"
           : site == Site::kExit ? "exit"
                                 : "handler";
  }
  static constexpr int kMaxTransitChain = 64;

  // `machine` must outlive the core. The machine variables stay unbound
  // until bind(), which the host calls once it can serve host calls.
  explicit SeedCore(const CompiledMachine& machine);
  ~SeedCore() override;

  const CompiledMachine& machine() const { return machine_; }
  const std::string& current_state() const { return current_state_; }
  const Env& env() const { return env_; }
  bool started() const { return started_; }

  // Binds the machine variables: `externals` override initializers (only
  // external variables may be bound, §III-A a), trigger variables without
  // an initializer start disarmed, and the rest take their declared type's
  // default. An initializer's EvalError propagates.
  void bind(const std::unordered_map<std::string, Value>& externals);
  // Runs the initial state's enter handlers and any transit they request.
  void start();
  // Resumes in `state` with the given machine variables (unknown names are
  // dropped) without re-running enter handlers: a migrated seed continues
  // exactly where it left off (§V-B).
  void resume(const std::string& state,
              const std::unordered_map<std::string, Value>& machine_vars);
  // The seed stops reacting; events delivered after stop() run no handler.
  void stop() { started_ = false; }

  // --- Events (ignored before start() and after stop()) ---------------------
  void on_poll(const std::string& var, const StatsValue& stats);
  void on_probe(const std::string& var, const net::PacketHeader& packet);
  void on_time(const std::string& var);
  // The first recv handler whose sender and payload type match consumes
  // the message.
  void on_message(const Value& payload, bool from_harvester,
                  const std::string& from_machine);
  // The host has already changed the allocation resources() returns.
  void on_realloc();

  // The current state's compiled util analysis, evaluated at an
  // allocation; 0 when the util does not analyze.
  double utility(const ResourcesValue& r) const;

  // Defers the transition to the end of the running handler.
  void request_transit(const std::string& state) override;

 protected:
  const CompiledState* state() const {
    return machine_.state(current_state_);
  }

  // --- Hooks ----------------------------------------------------------------
  // An event handler is about to run (enter/exit handlers of a transit
  // excluded).
  virtual void handler_ran() = 0;
  // A handler raised; the event or transition completes regardless.
  virtual void handler_failed(Site site, const EvalError& error) = 0;
  // A transition entered current_state(); its enter handlers have run.
  virtual void state_entered() = 0;
  // The transit chain exceeded kMaxTransitChain; the pending transit is
  // dropped.
  virtual void chain_cut() = 0;

 private:
  // Runs an event's actions in a fresh scope (with an optional binding),
  // then applies any deferred transition.
  void run_handler(const std::vector<ActionPtr>& actions,
                   const std::string& bind_name, const Value& bind_value);
  void fire_var(const std::string& var, const Value& bind_value);
  void fire_simple(EventDecl::TriggerKind kind);
  void run_transit_handlers(EventDecl::TriggerKind kind, Site site);
  void apply_pending_transit();

  const CompiledMachine& machine_;
  Env env_;  // machine-level environment
  std::string current_state_;
  std::optional<std::string> pending_transit_;
  Interpreter interp_;
  bool started_ = false;
  int transit_depth_ = 0;
};

}  // namespace farm::almanac
