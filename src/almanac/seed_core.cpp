#include "almanac/seed_core.h"

#include "almanac/analysis.h"
#include "util/check.h"

namespace farm::almanac {

SeedCore::SeedCore(const CompiledMachine& machine)
    : machine_(machine),
      current_state_(machine.initial_state),
      interp_(machine, this) {}

SeedCore::~SeedCore() = default;

void SeedCore::bind(const std::unordered_map<std::string, Value>& externals) {
  for (const auto* v : machine_.vars) {
    auto ext = externals.find(v->name);
    if (ext != externals.end()) {
      FARM_CHECK_MSG(v->external,
                     "binding supplied for non-external variable");
      env_.define(v->name, ext->second);
    } else if (v->init) {
      env_.define(v->name, interp_.eval(*v->init, env_));
    } else if (v->trigger) {
      env_.define(v->name, Value(TriggerSpec{}));
    } else {
      env_.define(v->name, Interpreter::default_value(v->type));
    }
  }
}

void SeedCore::start() {
  FARM_CHECK(!started_);
  started_ = true;
  fire_simple(EventDecl::TriggerKind::kEnter);
  apply_pending_transit();
}

void SeedCore::resume(
    const std::string& state,
    const std::unordered_map<std::string, Value>& machine_vars) {
  FARM_CHECK(!started_);
  started_ = true;
  current_state_ = state;
  FARM_CHECK_MSG(this->state() != nullptr,
                 "snapshot references unknown state");
  for (const auto& [name, v] : machine_vars)
    if (machine_.var(name)) env_.define(name, v);
}

void SeedCore::run_handler(const std::vector<ActionPtr>& actions,
                           const std::string& bind_name,
                           const Value& bind_value) {
  Env scope(&env_);
  if (!bind_name.empty()) scope.define(bind_name, bind_value);
  handler_ran();
  try {
    interp_.exec(actions, scope);
  } catch (const EvalError& e) {
    handler_failed(Site::kHandler, e);
  }
  apply_pending_transit();
}

// A handler that transits does not stop the loop: the remaining handlers
// of the state the event was delivered in still run.
void SeedCore::fire_var(const std::string& var, const Value& bind_value) {
  const CompiledState* st = state();
  if (!started_ || !st) return;
  for (const auto* ev : st->events)
    if (ev->kind == EventDecl::TriggerKind::kVarTrigger && ev->var == var)
      run_handler(ev->actions, ev->as_var, bind_value);
}

void SeedCore::fire_simple(EventDecl::TriggerKind kind) {
  const CompiledState* st = state();
  if (!started_ || !st) return;
  for (const auto* ev : st->events)
    if (ev->kind == kind) run_handler(ev->actions, "", Value());
}

void SeedCore::run_transit_handlers(EventDecl::TriggerKind kind, Site site) {
  const CompiledState* st = state();
  if (!st) return;
  for (const auto* ev : st->events) {
    if (ev->kind != kind) continue;
    Env scope(&env_);
    try {
      interp_.exec(ev->actions, scope);
    } catch (const EvalError& e) {
      handler_failed(site, e);
    }
  }
}

void SeedCore::apply_pending_transit() {
  while (pending_transit_) {
    if (++transit_depth_ > kMaxTransitChain) {
      pending_transit_.reset();
      chain_cut();
      break;
    }
    std::string target = std::move(*pending_transit_);
    pending_transit_.reset();
    if (target == current_state_) continue;
    run_transit_handlers(EventDecl::TriggerKind::kExit, Site::kExit);
    current_state_ = std::move(target);
    // Enter handlers may request the next transit; the loop takes it.
    run_transit_handlers(EventDecl::TriggerKind::kEnter, Site::kEnter);
    state_entered();
  }
  transit_depth_ = 0;
}

void SeedCore::on_poll(const std::string& var, const StatsValue& stats) {
  fire_var(var, Value(stats));
}

void SeedCore::on_probe(const std::string& var,
                        const net::PacketHeader& packet) {
  fire_var(var, Value(packet));
}

void SeedCore::on_time(const std::string& var) {
  fire_var(var, Value(now_ms()));
}

void SeedCore::on_message(const Value& payload, bool from_harvester,
                          const std::string& from_machine) {
  const CompiledState* st = state();
  if (!started_ || !st) return;
  for (const auto* ev : st->events) {
    if (ev->kind != EventDecl::TriggerKind::kRecv) continue;
    if (ev->from_harvester != from_harvester) continue;
    if (!from_harvester && !ev->from_machine.empty() &&
        ev->from_machine != from_machine)
      continue;
    // Pattern matching: the payload type must match the declared formal.
    if (!Interpreter::matches_type(payload, ev->recv_type)) continue;
    run_handler(ev->actions, ev->recv_var, payload);
    return;
  }
}

void SeedCore::on_realloc() { fire_simple(EventDecl::TriggerKind::kRealloc); }

double SeedCore::utility(const ResourcesValue& r) const {
  const CompiledState* st = state();
  if (!st) return default_utility().utility(r);
  const UtilityAnalysis* ua = st->utility_analysis();
  return ua ? ua->utility(r) : 0;
}

void SeedCore::request_transit(const std::string& state) {
  pending_transit_ = state;
}

}  // namespace farm::almanac
