// SeedCore: the seed event loop (§II-B a), shared by every host that runs
// a machine — the soil runtime (runtime::Seed) and Winnow's replay harness
// (opt/replay.cpp), so the optimizer's equivalence check runs the dispatch
// code the simulator runs.
//
// The core owns the machine's register file, the current state and the
// deferred transition. It reacts to poll snapshots, probe samples, timer
// ticks, messages and resource reallocations by running the current
// state's matching handlers on the seed VM (vm.h). A transition requested
// during a handler takes effect when the handler finishes (transit-at-end
// semantics of the HH example): the old state's exit handlers run, then
// the new state's locals are bound, then its enter handlers run, which may
// request the next step of the chain; a chain longer than
// kMaxTransitChain steps is cut.
//
// State locals live while their state is resident: entering a state (at
// start() or by a transit) binds each of its locals afresh to its
// initializer, or its type's default, before the state's enter handlers
// run. Hosts carry the current state's locals across a migration
// (state_locals(), resume()).
//
// Every switch or network effect goes through the SeedHost interface,
// which the concrete host implements. Bookkeeping the hosts account
// differently (handler counts, error reporting, trigger re-arming after a
// state change) is reported through the protected hooks.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "almanac/vm.h"

namespace farm::almanac {

class SeedCore : public SeedHost {
 public:
  // Where a handler's EvalError was raised. A state local's initializer
  // reports at its state's enter site.
  enum class Site { kHandler, kEnter, kExit };
  static const char* site_name(Site site) {
    return site == Site::kEnter  ? "enter"
           : site == Site::kExit ? "exit"
                                 : "handler";
  }
  static constexpr int kMaxTransitChain = 64;

  using Bindings = std::unordered_map<std::string, Value>;

  // `machine` must outlive the core. The machine variables stay unbound
  // until bind(), which the host calls once it can serve host calls.
  explicit SeedCore(const CompiledMachine& machine);
  ~SeedCore() override;

  const CompiledMachine& machine() const { return machine_; }
  const std::string& current_state() const {
    return machine_.states[state_].name;
  }
  const Registers& registers() const { return regs_; }
  // A bound machine variable or local of the current state; nullptr when
  // the name is neither.
  const Value* variable(std::string_view name) const;
  // The bound machine variables, by name (snapshots, envelope checks).
  Bindings machine_vars() const;
  // The current state's locals, by name.
  Bindings state_locals() const;
  bool started() const { return started_; }

  // Binds the machine variables: `externals` override initializers (only
  // external variables may be bound, §III-A a), trigger variables without
  // an initializer start disarmed, and the rest take their declared type's
  // default. An initializer's EvalError propagates.
  void bind(const Bindings& externals);
  // Enters the initial state: binds its locals, runs its enter handlers
  // and any transit they request.
  void start();
  // Resumes in `state` with the given machine variables (unknown names are
  // dropped) and state locals (a local absent from `locals` takes its
  // type's default) without running an initializer or enter handler: a
  // migrated seed continues exactly where it left off (§V-B).
  void resume(const std::string& state, const Bindings& machine_vars,
              const Bindings& locals = {});
  // The seed stops reacting; events delivered after stop() run no handler.
  void stop() { started_ = false; }

  // --- Events (ignored before start() and after stop()) ---------------------
  // A trigger event runs the handlers of the machine variable `var`.
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
  const CompiledState* state() const { return &machine_.states[state_]; }
  const StateCode& state_code() const { return code_.states[state_]; }

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
  // Runs an event handler (with its binding), then applies any deferred
  // transition.
  void run_handler(const HandlerCode& handler, const Value& binding);
  void fire_var(const std::string& var, const Value& binding);
  void fire_simple(EventDecl::TriggerKind kind);
  void run_transit_handlers(EventDecl::TriggerKind kind, Site site);
  void bind_state_locals();
  void apply_pending_transit();

  const CompiledMachine& machine_;
  const MachineCode& code_;
  Registers regs_;
  std::size_t state_;
  int pending_transit_ = -1;  // state index
  Vm vm_;
  bool started_ = false;
  int transit_depth_ = 0;
};

}  // namespace farm::almanac
