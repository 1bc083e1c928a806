// The event queue against the one it replaced (engine_reference.h): twin
// runners run the same randomized script on sim::Engine and on the
// heap-and-hash-set reference. The script schedules at random times with
// many same-instant ties; cancels live, fired, cancelled and never-issued
// ids, fired ids whose slot a newer event now holds, and kInvalidEvent;
// re-arms timers the way periodic tasks do (schedule, then cancel) until
// compaction runs; schedules and cancels from inside callbacks, including
// a callback that cancels its own id; and interleaves step, run_until,
// run_for and run. After every operation the ordered transcript of fired
// callbacks, with now(), pending_events(), heap_size() and
// executed_events() after each step of it, must be equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine_reference.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace farm::sim {
namespace {

// One transcript line: what the runner did and the engine's state after.
struct Mark {
  std::string what;
  std::int64_t now_ns = 0;
  std::size_t pending = 0;
  std::size_t heap = 0;
  std::uint64_t executed = 0;
  friend bool operator==(const Mark&, const Mark&) = default;
};

void PrintTo(const Mark& m, std::ostream* os) {
  *os << m.what << " @" << m.now_ns << "ns pending=" << m.pending
      << " heap=" << m.heap << " executed=" << m.executed;
}

enum class OpKind {
  kSchedule,
  kScheduleTies,  // several events at one instant
  kRearm,         // schedule then cancel, repeatedly (tombstone churn)
  kCancelAny,     // a live, fired or cancelled handle
  kCancelFired,
  kCancelNeverIssued,
  kCancelInvalid,
  kStep,
  kRunUntil,
  kRunFor,
  kRun,
};

// `r` seeds the op's own draws, so both runners read it the same way.
struct Op {
  OpKind kind;
  std::uint64_t r;
};

Op next_op(util::Rng& script) {
  static constexpr std::pair<OpKind, double> kMix[] = {
      {OpKind::kSchedule, 24},     {OpKind::kScheduleTies, 8},
      {OpKind::kRearm, 5},         {OpKind::kCancelAny, 14},
      {OpKind::kCancelFired, 8},   {OpKind::kCancelNeverIssued, 3},
      {OpKind::kCancelInvalid, 2}, {OpKind::kStep, 16},
      {OpKind::kRunUntil, 13},     {OpKind::kRunFor, 5},
      {OpKind::kRun, 2},
  };
  std::vector<double> weights;
  for (const auto& [kind, w] : kMix) weights.push_back(w);
  return {kMix[script.next_weighted(weights)].first, script.next_u64()};
}

// Delays with many ties: half land on the current instant or on a few
// shared offsets.
Duration tie_heavy_delay(util::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return Duration{};
    case 1:
      return Duration::us(1);
    case 2:
      return Duration::us(5);
    default:
      return Duration::us(static_cast<std::int64_t>(rng.next_below(200)));
  }
}

template <class E>
class Runner {
 public:
  // Every runner stops scheduling from callbacks at this many handles, so
  // run() drains.
  static constexpr std::size_t kBudget = 40000;
  static constexpr bool kSlotted = std::is_same_v<E, Engine>;

  explicit Runner(std::uint64_t seed) : rng_(seed) {}
  // Callbacks hold the runner's address.
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const std::vector<Mark>& transcript() const { return transcript_; }
  // Coverage counts (slot reuse is only visible on the slotted engine).
  int self_cancels() const { return self_cancels_; }
  int reused_slot_cancels() const { return reused_slot_cancels_; }

  void apply(const Op& op) {
    util::Rng r(op.r);
    switch (op.kind) {
      case OpKind::kSchedule:
        schedule(tie_heavy_delay(r), "schedule");
        break;
      case OpKind::kScheduleTies: {
        const Duration d = tie_heavy_delay(r);
        for (auto n = 2 + r.next_below(5); n > 0; --n) schedule(d, "tie");
        break;
      }
      case OpKind::kRearm:
        for (auto n = 1 + r.next_below(60); n > 0; --n) {
          schedule(tie_heavy_delay(r), "rearm");
          cancel(ids_.size() - 1, "rearm-cancel");
        }
        break;
      case OpKind::kCancelAny:
        if (!ids_.empty()) cancel(r.next_below(ids_.size()), "cancel");
        break;
      case OpKind::kCancelFired:
        if (!fired_.empty())
          cancel(fired_[r.next_below(fired_.size())], "cancel-fired");
        break;
      case OpKind::kCancelNeverIssued:
        // No script issues a reference id this large or a generation this
        // high.
        engine_.cancel((EventId{0xABC00000u + r.next_below(1024)} << 32) |
                       r.next_below(64));
        note("cancel-never-issued");
        break;
      case OpKind::kCancelInvalid:
        engine_.cancel(kInvalidEvent);
        note("cancel-invalid");
        break;
      case OpKind::kStep:
        note(engine_.step() ? "step" : "step-empty");
        break;
      case OpKind::kRunUntil:
        engine_.run_until(engine_.now() + tie_heavy_delay(r));
        note("run_until");
        break;
      case OpKind::kRunFor:
        engine_.run_for(Duration::us(static_cast<std::int64_t>(
            r.next_below(2000))));
        note("run_for");
        break;
      case OpKind::kRun:
        engine_.run();
        note("run");
        break;
    }
  }

 private:
  enum class State { kPending, kFired, kCancelled };

  void note(std::string what) {
    transcript_.push_back({std::move(what), engine_.now().count_ns(),
                           engine_.pending_events(), engine_.heap_size(),
                           engine_.executed_events()});
  }
  void note(const char* what, std::size_t k) {
    note(std::string(what) + " " + std::to_string(k));
  }

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  void schedule(Duration d, const char* why) {
    const std::size_t k = ids_.size();
    ids_.push_back(engine_.schedule_after(d, [this, k] { fire(k); }));
    state_.push_back(State::kPending);
    if constexpr (kSlotted) {
      const std::uint32_t slot = slot_of(ids_[k]);
      if (holder_.size() <= slot) holder_.resize(slot + 1, -1);
      holder_[slot] = static_cast<std::int64_t>(k);
    }
    note(why, k);
  }

  void retire(std::size_t k, State to) {
    state_[k] = to;
    if constexpr (kSlotted)
      if (holder_[slot_of(ids_[k])] == static_cast<std::int64_t>(k))
        holder_[slot_of(ids_[k])] = -1;
  }

  void cancel(std::size_t k, const char* why) {
    if constexpr (kSlotted)
      if (state_[k] != State::kPending && holder_[slot_of(ids_[k])] >= 0)
        ++reused_slot_cancels_;
    engine_.cancel(ids_[k]);
    if (state_[k] == State::kPending) retire(k, State::kCancelled);
    note(why, k);
  }

  void fire(std::size_t k) {
    EXPECT_EQ(state_[k], State::kPending) << "handle " << k;
    retire(k, State::kFired);
    fired_.push_back(k);
    note("fire", k);
    // Nested actions draw from the runner's own stream in firing order.
    if (rng_.next_bool(0.2)) {
      ++self_cancels_;
      engine_.cancel(ids_[k]);
      note("cancel-self", k);
    }
    if (ids_.size() < kBudget && rng_.next_bool(0.4))
      schedule(tie_heavy_delay(rng_), "nested-schedule");
    if (ids_.size() < kBudget && rng_.next_bool(0.1))
      schedule(Duration{}, "nested-same-instant");
    if (rng_.next_bool(0.3))
      cancel(rng_.next_below(ids_.size()), "nested-cancel");
  }

  E engine_;
  util::Rng rng_;
  std::vector<EventId> ids_;  // handle k → the engine's id for it
  std::vector<State> state_;
  std::vector<std::size_t> fired_;
  // Slot → the pending handle in it, or -1 (slotted engine only).
  std::vector<std::int64_t> holder_;
  std::vector<Mark> transcript_;
  int self_cancels_ = 0;
  int reused_slot_cancels_ = 0;
};

TEST(EngineOracle, RandomizedScriptsMatchTheReferenceEngine) {
  constexpr int kOps = 4000;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng script(seed);
    Runner<Engine> got(seed * 0x9E3779B9ull);
    Runner<ref::Engine> want(seed * 0x9E3779B9ull);
    std::size_t checked = 0;
    for (int i = 0; i < kOps; ++i) {
      const Op op = next_op(script);
      got.apply(op);
      want.apply(op);
      const auto& a = got.transcript();
      const auto& b = want.transcript();
      for (; checked < std::min(a.size(), b.size()); ++checked)
        ASSERT_EQ(a[checked], b[checked])
            << "op " << i << " line " << checked;
      ASSERT_EQ(a.size(), b.size()) << "op " << i;
    }
    // The script reached the cases it exists for.
    EXPECT_GT(got.self_cancels(), 0);
    EXPECT_GT(got.reused_slot_cancels(), 0);
  }
}

}  // namespace
}  // namespace farm::sim
