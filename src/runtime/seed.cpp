#include "runtime/seed.h"

#include "runtime/soil.h"
#include "runtime/wire.h"
#include "util/log.h"

namespace farm::runtime {

std::size_t SeedSnapshot::wire_bytes() const {
  std::size_t n = 16 + current_state.size();
  for (const auto* vars : {&machine_vars, &state_locals})
    for (const auto& [name, v] : *vars) n += name.size() + value_wire_bytes(v);
  return n;
}

Seed::Seed(SeedId id, std::shared_ptr<MachineImage> image, Soil& soil,
           const std::unordered_map<std::string, Value>& externals)
    : SeedCore(image->machine),
      id_(std::move(id)),
      cpu_task_(std::hash<std::string>{}(id_.to_string()) | 0x8000),
      image_(std::move(image)),
      soil_(soil) {
  tel_ = &soil_.engine().telemetry();
  m_handlers_ = tel_->counter("seed.handlers");
  m_transits_ = tel_->counter("seed.transits");
  bind(externals);
}

Seed::~Seed() = default;

void Seed::start() {
  SeedCore::start();
  soil_.refresh_triggers(*this);
}

void Seed::start_from(const SeedSnapshot& snapshot) {
  resume(snapshot.current_state, snapshot.machine_vars, snapshot.state_locals);
  soil_.refresh_triggers(*this);
}

SeedSnapshot Seed::snapshot() const {
  SeedSnapshot s;
  s.current_state = current_state();
  s.machine_vars = machine_vars();
  s.state_locals = state_locals();
  return s;
}

std::vector<Seed::ActiveTrigger> Seed::active_triggers() const {
  std::vector<ActiveTrigger> out;
  for (const auto& h : state_code().handlers) {
    if (h.trigger_reg < 0) continue;
    const auto reg = static_cast<std::size_t>(h.trigger_reg);
    const almanac::VarDecl* vd = machine().vars[reg];
    if (!vd->trigger || !registers().bound(reg)) continue;
    const Value* val = &registers()[reg];
    ActiveTrigger t;
    t.var = vd->name;
    t.type = *vd->trigger;
    if (val->is_trigger()) {
      t.spec = val->as_trigger();
    } else if (val->is_numeric()) {
      // `time t = 0.5;` — plain period in seconds.
      t.spec.ival_seconds = val->as_float();
    } else {
      continue;
    }
    if (t.spec.ival_seconds <= 0) continue;  // disarmed
    out.push_back(std::move(t));
  }
  return out;
}

// --- SeedHost ---------------------------------------------------------------

ResourcesValue Seed::resources() { return allocation_; }

void Seed::add_tcam_rule(const asic::TcamRule& rule) {
  soil_.add_monitor_rule(*this, rule);
}

void Seed::remove_tcam_rule(const net::Filter& pattern) {
  soil_.remove_monitor_rule(pattern);
}

std::optional<asic::TcamRule> Seed::get_tcam_rule(const net::Filter& pattern) {
  return soil_.get_monitor_rule(pattern);
}

void Seed::send(const Value& payload, const SendTarget& target) {
  soil_.seed_send(*this, payload, target);
}

void Seed::exec(const std::string& command) { soil_.seed_exec(*this, command); }

void Seed::trigger_updated(const std::string& /*var*/) {
  if (started()) soil_.refresh_triggers(*this);
}

std::int64_t Seed::switch_id() {
  return static_cast<std::int64_t>(soil_.node());
}

std::int64_t Seed::now_ms() {
  return soil_.engine().now().count_ns() / 1'000'000;
}

void Seed::log(const std::string& message) {
  FARM_LOG(kInfo) << id_.to_string() << ": " << message;
}

// --- SeedCore hooks ---------------------------------------------------------

void Seed::handler_ran() {
  tel_->count(m_handlers_);  // fleet-hot: keep it off the event ring
}

void Seed::handler_failed(Site site, const almanac::EvalError& error) {
  FARM_LOG(kWarn) << id_.to_string() << ": " << site_name(site)
                  << " error: " << error.what();
}

void Seed::state_entered() {
  tel_->add(m_transits_);
  if (started()) soil_.refresh_triggers(*this);
}

void Seed::chain_cut() {
  FARM_LOG(kWarn) << id_.to_string() << ": transit chain too deep";
}

}  // namespace farm::runtime
