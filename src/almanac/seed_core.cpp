#include "almanac/seed_core.h"

#include "util/check.h"

namespace farm::almanac {

SeedCore::SeedCore(const CompiledMachine& machine)
    : machine_(machine),
      code_(*machine.code),
      regs_(machine),
      state_(static_cast<std::size_t>(
          code_.state_index(machine.initial_state))),
      vm_(machine, this) {}

SeedCore::~SeedCore() = default;

const Value* SeedCore::variable(std::string_view name) const {
  if (const Value* v = regs_.var(name)) return v;
  for (const auto& l : state_code().locals)
    if (code_.names[l.reg] == name && regs_.bound(l.reg)) return &regs_[l.reg];
  return nullptr;
}

SeedCore::Bindings SeedCore::machine_vars() const {
  Bindings out;
  for (std::size_t i = 0; i < code_.n_vars; ++i)
    if (regs_.bound(i)) out.emplace(code_.names[i], regs_[i]);
  return out;
}

SeedCore::Bindings SeedCore::state_locals() const {
  Bindings out;
  for (const auto& l : state_code().locals)
    if (regs_.bound(l.reg)) out.insert_or_assign(code_.names[l.reg], regs_[l.reg]);
  return out;
}

void SeedCore::bind(const Bindings& externals) {
  for (std::size_t i = 0; i < machine_.vars.size(); ++i) {
    const VarDecl* v = machine_.vars[i];
    auto ext = externals.find(v->name);
    if (ext != externals.end()) {
      FARM_CHECK_MSG(v->external,
                     "binding supplied for non-external variable");
      regs_.bind(i, ext->second);
    } else if (v->init) {
      regs_.bind(i, vm_.eval(code_.var_inits[i], regs_));
    } else if (v->trigger) {
      regs_.bind(i, Value(TriggerSpec{}));
    } else {
      regs_.bind(i, default_value(v->type));
    }
  }
}

void SeedCore::bind_state_locals() {
  for (const auto& l : state_code().locals) {
    Value v = default_value(l.decl->type);
    if (l.init.kind != ExprCode::Kind::kAbsent) {
      try {
        v = vm_.eval(l.init, regs_);
      } catch (const EvalError& e) {
        handler_failed(Site::kEnter, e);
      }
    }
    regs_.bind(l.reg, std::move(v));
  }
}

void SeedCore::start() {
  FARM_CHECK(!started_);
  started_ = true;
  bind_state_locals();
  fire_simple(EventDecl::TriggerKind::kEnter);
  apply_pending_transit();
}

void SeedCore::resume(const std::string& state, const Bindings& machine_vars,
                      const Bindings& locals) {
  FARM_CHECK(!started_);
  started_ = true;
  int index = code_.state_index(state);
  FARM_CHECK_MSG(index >= 0, "snapshot references unknown state");
  state_ = static_cast<std::size_t>(index);
  for (const auto& [name, v] : machine_vars)
    if (int slot = code_.var_slot(name); slot >= 0)
      regs_.bind(static_cast<std::size_t>(slot), v);
  for (const auto& l : state_code().locals) {
    auto it = locals.find(code_.names[l.reg]);
    regs_.bind(l.reg, it != locals.end() ? it->second
                                         : default_value(l.decl->type));
  }
}

void SeedCore::run_handler(const HandlerCode& handler, const Value& binding) {
  handler_ran();
  try {
    vm_.run(handler, regs_, binding);
  } catch (const EvalError& e) {
    handler_failed(Site::kHandler, e);
  }
  apply_pending_transit();
}

// A handler that transits does not stop the loop: the remaining handlers
// of the state the event was delivered in still run.
void SeedCore::fire_var(const std::string& var, const Value& binding) {
  if (!started_) return;
  const int reg = code_.var_slot(var);
  if (reg < 0) return;
  for (const auto& h : state_code().handlers)
    if (h.trigger_reg == reg) run_handler(h, binding);
}

void SeedCore::fire_simple(EventDecl::TriggerKind kind) {
  if (!started_) return;
  for (const auto& h : state_code().handlers)
    if (h.decl->kind == kind) run_handler(h, Value());
}

void SeedCore::run_transit_handlers(EventDecl::TriggerKind kind, Site site) {
  for (const auto& h : state_code().handlers) {
    if (h.decl->kind != kind) continue;
    try {
      vm_.run(h, regs_);
    } catch (const EvalError& e) {
      handler_failed(site, e);
    }
  }
}

void SeedCore::apply_pending_transit() {
  while (pending_transit_ >= 0) {
    if (++transit_depth_ > kMaxTransitChain) {
      pending_transit_ = -1;
      chain_cut();
      break;
    }
    const auto target = static_cast<std::size_t>(pending_transit_);
    pending_transit_ = -1;
    if (target == state_) continue;
    run_transit_handlers(EventDecl::TriggerKind::kExit, Site::kExit);
    state_ = target;
    bind_state_locals();
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
  if (!started_) return;
  for (const auto& h : state_code().handlers) {
    const EventDecl* ev = h.decl;
    if (ev->kind != EventDecl::TriggerKind::kRecv) continue;
    if (ev->from_harvester != from_harvester) continue;
    if (!from_harvester && !ev->from_machine.empty() &&
        ev->from_machine != from_machine)
      continue;
    // Pattern matching: the payload type must match the declared formal.
    if (!matches_type(payload, ev->recv_type)) continue;
    run_handler(h, payload);
    return;
  }
}

void SeedCore::on_realloc() { fire_simple(EventDecl::TriggerKind::kRealloc); }

double SeedCore::utility(const ResourcesValue& r) const {
  const UtilityAnalysis* ua = state()->utility_analysis();
  return ua ? ua->utility(r) : 0;
}

void SeedCore::request_transit(const std::string& state) {
  int index = code_.state_index(state);
  FARM_CHECK_MSG(index >= 0, "transit to unknown state");
  pending_transit_ = index;
}

}  // namespace farm::almanac
