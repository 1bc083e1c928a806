// Tests for the discrete-event engine and the CPU model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cpu.h"
#include "sim/engine.h"

namespace farm::sim {
namespace {

TEST(EngineTest, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_after(Duration::ms(5), [&] { order.push_back(2); });
  e.schedule_after(Duration::ms(1), [&] { order.push_back(1); });
  e.schedule_after(Duration::ms(9), [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), TimePoint::origin() + Duration::ms(9));
}

TEST(EngineTest, SimultaneousEventsRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  auto t = TimePoint::origin() + Duration::ms(1);
  e.schedule_at(t, [&] { order.push_back(1); });
  e.schedule_at(t, [&] { order.push_back(2); });
  e.schedule_at(t, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  auto id = e.schedule_after(Duration::ms(1), [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelOfFiredEventIsNoop) {
  Engine e;
  auto id = e.schedule_after(Duration::ms(1), [] {});
  e.run();
  e.cancel(id);  // must not crash or corrupt
  EXPECT_EQ(e.pending_events(), 0u);
}

// An id names a (generation, slot) pair: once its event fired or was
// cancelled, the id stays stale even after a new event reuses the slot.
TEST(EngineTest, StaleIdLeavesTheSlotsNewEventAlone) {
  Engine e;
  int fired = 0, cancelled = 0;
  EventId first = e.schedule_after(Duration::ms(1), [&] { ++fired; });
  e.run();
  EventId second = e.schedule_after(Duration::ms(1), [&] { ++fired; });
  EventId third = e.schedule_after(Duration::ms(1), [&] { ++cancelled; });
  e.cancel(third);
  EventId fourth = e.schedule_after(Duration::ms(1), [&] { ++fired; });
  // The low 32 bits of an id are its slot: both slots were reused.
  ASSERT_EQ(static_cast<std::uint32_t>(first),
            static_cast<std::uint32_t>(second));
  ASSERT_EQ(static_cast<std::uint32_t>(third),
            static_cast<std::uint32_t>(fourth));
  ASSERT_NE(first, second);
  ASSERT_NE(third, fourth);
  e.cancel(first);  // fired: its slot now holds `second` or `fourth`
  e.cancel(third);  // cancelled: same
  EXPECT_EQ(e.pending_events(), 2u);
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(cancelled, 0);
}

TEST(EngineTest, RunUntilAdvancesClockExactly) {
  Engine e;
  int fired = 0;
  e.schedule_after(Duration::ms(10), [&] { ++fired; });
  e.run_until(TimePoint::origin() + Duration::ms(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), TimePoint::origin() + Duration::ms(5));
  e.run_until(TimePoint::origin() + Duration::ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), TimePoint::origin() + Duration::ms(20));
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) e.schedule_after(Duration::ms(1), chain);
  };
  e.schedule_after(Duration::ms(1), chain);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), TimePoint::origin() + Duration::ms(5));
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Engine e;
  int fired = 0;
  PeriodicTask t(e, Duration::ms(10), [&] { ++fired; });
  t.start();
  e.run_for(Duration::ms(35));
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTaskTest, StopFromInsideCallbackSticks) {
  Engine e;
  int fired = 0;
  PeriodicTask t(e, Duration::ms(1), [&] {
    ++fired;
    if (fired == 2) t.stop();
  });
  t.start();
  e.run_for(Duration::ms(50));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTaskTest, SetPeriodTakesEffect) {
  Engine e;
  int fired = 0;
  PeriodicTask t(e, Duration::ms(10), [&] { ++fired; });
  t.start();
  e.run_for(Duration::ms(25));  // 2 firings at 10ms
  t.set_period(Duration::ms(100));
  e.run_for(Duration::ms(250));  // ~2 more at 100ms
  EXPECT_EQ(fired, 4);
}

TEST(PeriodicTaskTest, RestartAfterStop) {
  Engine e;
  int fired = 0;
  PeriodicTask t(e, Duration::ms(10), [&] { ++fired; });
  t.start();
  e.run_for(Duration::ms(15));
  t.stop();
  e.run_for(Duration::ms(50));
  EXPECT_EQ(fired, 1);
  t.start();
  e.run_for(Duration::ms(15));
  EXPECT_EQ(fired, 2);
}

TEST(CpuModelTest, SingleJobCompletesAfterDemand) {
  Engine e;
  CpuModel cpu(e, 1, Duration{});
  bool done = false;
  cpu.submit(1, Duration::ms(5), [&] { done = true; });
  e.run_for(Duration::ms(4));
  EXPECT_FALSE(done);
  e.run_for(Duration::ms(2));
  EXPECT_TRUE(done);
}

TEST(CpuModelTest, MultiCoreRunsJobsInParallel) {
  Engine e;
  CpuModel cpu(e, 4, Duration{});
  int done = 0;
  for (int i = 0; i < 4; ++i)
    cpu.submit(static_cast<TaskId>(i), Duration::ms(10), [&] { ++done; });
  e.run_for(Duration::ms(11));
  EXPECT_EQ(done, 4);  // all four in parallel, not 40ms serialized
}

TEST(CpuModelTest, SingleCoreSerializes) {
  Engine e;
  CpuModel cpu(e, 1, Duration{});
  int done = 0;
  for (int i = 0; i < 4; ++i)
    cpu.submit(1, Duration::ms(10), [&] { ++done; });
  e.run_for(Duration::ms(25));
  EXPECT_EQ(done, 2);
  e.run_for(Duration::ms(20));
  EXPECT_EQ(done, 4);
}

TEST(CpuModelTest, ContextSwitchChargedOnTaskChange) {
  Engine e;
  CpuModel cpu(e, 1, Duration::ms(1));
  // Same task twice: one switch (from idle task 0). Then a different task:
  // another switch.
  cpu.submit(7, Duration::ms(2));
  cpu.submit(7, Duration::ms(2));
  cpu.submit(8, Duration::ms(2));
  e.run();
  EXPECT_EQ(cpu.context_switches(), 2u);
  EXPECT_EQ(cpu.busy_time(), Duration::ms(2 * 3 + 2));
}

TEST(CpuModelTest, LoadPercentReflectsMultiCoreSaturation) {
  Engine e;
  CpuModel cpu(e, 4, Duration{});
  TimePoint start = e.now();
  Duration busy0 = cpu.busy_time();
  for (int i = 0; i < 8; ++i)
    cpu.submit(static_cast<TaskId>(i), Duration::ms(50));
  e.run_for(Duration::ms(100));
  // 8 × 50ms on 4 cores over 100ms → 400% for the first half, 400%*0.5 = 200%…
  // exact: total busy 400ms / 100ms window = 400%.
  EXPECT_NEAR(cpu.load_percent(start, busy0), 400, 1);
}

TEST(EngineTest, CancelHeavyWorkloadKeepsHeapBounded) {
  // Periodic components re-arm constantly: schedule + cancel in a loop.
  // Lazy deletion alone grows the heap by one tombstone per cycle; the
  // compaction must keep heap_size() within a small constant factor of the
  // live count instead of the total cancel count.
  Engine e;
  for (int i = 0; i < 100000; ++i) {
    EventId id = e.schedule_after(Duration::ms(100), [] {});
    e.cancel(id);
  }
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_LT(e.heap_size(), 256u);
}

TEST(EngineTest, HeapStaysProportionalToLiveEventsUnderChurn) {
  Engine e;
  // A realistic mix: a standing population of live timers plus heavy
  // cancel/re-arm churn on top of it.
  std::vector<EventId> live;
  for (int i = 0; i < 1000; ++i)
    live.push_back(e.schedule_after(Duration::sec(60 + i), [] {}));
  for (int round = 0; round < 50000; ++round) {
    EventId id = e.schedule_after(Duration::ms(10), [] {});
    e.cancel(id);
  }
  EXPECT_EQ(e.pending_events(), 1000u);
  EXPECT_LT(e.heap_size(), 4096u);  // ≈ 4 × live, not 50k tombstones
  // Compaction must not lose or reorder anything that is still live.
  e.run();
  EXPECT_EQ(e.executed_events(), 1000u);
}

TEST(EngineTest, RunUntilHonorsHorizonPastCancelledFrontEvent) {
  // A cancelled tombstone at the heap front used to let run_until admit
  // the next live event even when it lay beyond the horizon.
  Engine e;
  bool fired = false;
  EventId early = e.schedule_after(Duration::ms(5), [] {});
  e.schedule_after(Duration::ms(10), [&] { fired = true; });
  e.cancel(early);
  e.run_until(TimePoint::origin() + Duration::ms(7));
  EXPECT_FALSE(fired);  // 10ms event must not run at a 7ms horizon
  EXPECT_EQ(e.now(), TimePoint::origin() + Duration::ms(7));
  e.run_until(TimePoint::origin() + Duration::ms(10));
  EXPECT_TRUE(fired);
}

TEST(EngineTest, CancelAfterCompactionIsHarmless) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(e.schedule_after(Duration::ms(i + 1), [] {}));
  // Cancel most of them (forces at least one compaction)…
  for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
  // …then cancel the same ids again: stale handles must stay no-ops.
  for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
  EXPECT_EQ(e.pending_events(), 250u);
  e.run();
  EXPECT_EQ(e.executed_events(), 250u);
}

}  // namespace
}  // namespace farm::sim
