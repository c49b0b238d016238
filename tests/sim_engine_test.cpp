#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/report.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using namespace mns::sim;

TEST(Time, Arithmetic) {
  EXPECT_EQ(Time::us(1).count_ps(), 1'000'000);
  EXPECT_EQ((Time::us(3) + Time::ns(500)).count_ps(), 3'500'000);
  EXPECT_EQ((Time::us(3) - Time::us(1)).count_ps(), 2'000'000);
  EXPECT_EQ((Time::ns(10) * 3).count_ps(), 30'000);
  EXPECT_LT(Time::ns(999), Time::us(1));
  EXPECT_DOUBLE_EQ(Time::us(5).to_us(), 5.0);
  EXPECT_DOUBLE_EQ(Time::ms(2).to_seconds(), 0.002);
  EXPECT_DOUBLE_EQ(Time::us(10) / Time::us(4), 2.5);
}

TEST(Time, SecondsRounding) {
  EXPECT_EQ(Time::seconds(1e-12).count_ps(), 1);
  EXPECT_EQ(Time::usec(6.8).count_ps(), 6'800'000);
  EXPECT_EQ(Time::nsec(0.5).count_ps(), 500);
}

TEST(Time, TransferTime) {
  // 1000 bytes at 1 GB/s = 1 us.
  EXPECT_EQ(transfer_time(1000, 1e9).count_ps(), 1'000'000);
  // 1 byte at 2 GB/s = 500 ps.
  EXPECT_EQ(transfer_time(1, 2e9).count_ps(), 500);
}

TEST(Time, Format) {
  EXPECT_EQ(Time::zero().str(), "0");
  EXPECT_EQ(Time::us(5).str(), "5.00us");
  EXPECT_EQ(Time::ns(1).str(), "1.00ns");
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.after(Time::us(3), [&] { order.push_back(3); });
  eng.after(Time::us(1), [&] { order.push_back(1); });
  eng.after(Time::us(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::us(3));
  EXPECT_EQ(eng.events_processed(), 3u);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.after(Time::us(1), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingIntoPastThrows) {
  Engine eng;
  eng.after(Time::us(1), [&] {
    EXPECT_THROW(eng.at(Time::zero(), [] {}), std::logic_error);
  });
  eng.run();
}

TEST(Engine, CoroutineDelayAdvancesTime) {
  Engine eng;
  Time finished;
  eng.spawn([](Engine& e, Time& out) -> Task<> {
    co_await e.delay(Time::us(10));
    co_await e.delay(Time::us(5));
    out = e.now();
  }(eng, finished));
  eng.run();
  EXPECT_EQ(finished, Time::us(15));
  EXPECT_EQ(eng.live_processes(), 0u);
}

Task<int> add_later(Engine& eng, int a, int b) {
  co_await eng.delay(Time::ns(100));
  co_return a + b;
}

Task<int> nested(Engine& eng) {
  const int x = co_await add_later(eng, 1, 2);
  const int y = co_await add_later(eng, x, 10);
  co_return y;
}

TEST(Engine, NestedTasksReturnValues) {
  Engine eng;
  int result = 0;
  eng.spawn([](Engine& e, int& out) -> Task<> {
    out = co_await nested(e);
  }(eng, result));
  eng.run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(eng.now(), Time::ns(200));
}

TEST(Engine, DeepTaskChainNoStackOverflow) {
  // Symmetric transfer: a 100k-deep chain of immediately-returning tasks
  // must not consume native stack proportional to depth.
  //
  // GCC only turns the symmetric-transfer resume into a tail call under
  // optimization; at -O0 each hop is a real call frame (and ASan makes
  // those frames much larger), so the depth that proves the property in
  // optimized builds overflows the stack in debug ones. Keep the full
  // depth wherever the property can actually hold.
#if defined(__OPTIMIZE__)
  constexpr int kDepth = 100'000;
#else
  constexpr int kDepth = 1'000;
#endif
  struct Chain {
    static Task<int> down(Engine& e, int depth) {
      if (depth == 0) co_return 0;
      co_return 1 + co_await down(e, depth - 1);
    }
  };
  Engine eng;
  int result = 0;
  eng.spawn([](Engine& e, int& out) -> Task<> {
    out = co_await Chain::down(e, kDepth);
  }(eng, result));
  eng.run();
  EXPECT_EQ(result, kDepth);
}

TEST(Engine, ExceptionPropagatesToRun) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task<> {
    co_await e.delay(Time::us(1));
    throw std::runtime_error("boom");
  }(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ExceptionAcrossNestedTasks) {
  struct Thrower {
    static Task<> inner(Engine& e) {
      co_await e.delay(Time::us(1));
      throw std::runtime_error("inner boom");
    }
    static Task<> outer(Engine& e) { co_await inner(e); }
  };
  Engine eng;
  eng.spawn(Thrower::outer(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, MultipleProcessesInterleave) {
  Engine eng;
  std::vector<std::pair<int, Time>> log;
  auto proc = [](Engine& e, std::vector<std::pair<int, Time>>& log, int id,
                 Time step) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(step);
      log.emplace_back(id, e.now());
    }
  };
  eng.spawn(proc(eng, log, 1, Time::us(2)));
  eng.spawn(proc(eng, log, 2, Time::us(3)));
  eng.run();
  ASSERT_EQ(log.size(), 6u);
  // Process 1 ticks at 2,4,6; process 2 at 3,6,9. At t=6 process 2 runs
  // first: its event was scheduled earlier (at t=3) than process 1's (t=4).
  EXPECT_EQ(log[0], (std::pair{1, Time::us(2)}));
  EXPECT_EQ(log[1], (std::pair{2, Time::us(3)}));
  EXPECT_EQ(log[2], (std::pair{1, Time::us(4)}));
  EXPECT_EQ(log[3], (std::pair{2, Time::us(6)}));
  EXPECT_EQ(log[4], (std::pair{1, Time::us(6)}));
  EXPECT_EQ(log[5], (std::pair{2, Time::us(9)}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int ticks = 0;
  eng.spawn([](Engine& e, int& t) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await e.delay(Time::us(1));
      ++t;
    }
  }(eng, ticks));
  EXPECT_FALSE(eng.run_until(Time::us(10)));
  EXPECT_EQ(ticks, 10);
  EXPECT_TRUE(eng.run_until(Time::ms(1)));
  EXPECT_EQ(ticks, 100);
}

TEST(Engine, TimeLimitConvertsOverrunIntoLivelockError) {
  // Unlike run_until (which parks cleanly at the deadline), the time
  // limit is a watchdog: crossing it is an error carrying a diagnostic
  // of where the clock stood and what was still pending.
  Engine eng;
  eng.set_time_limit(Time::us(10));
  int ran = 0;
  eng.at(Time::us(5), [&] { ++ran; });
  eng.at(Time::us(20), [&] { ++ran; });
  try {
    eng.run();
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    const std::string r = e.report();
    EXPECT_NE(r.find("time limit"), std::string::npos) << r;
    EXPECT_NE(r.find("next event at"), std::string::npos) << r;
  }
  EXPECT_EQ(ran, 1);  // the in-horizon event ran, the overrun one did not
}

TEST(Engine, EventLimitCatchesLiveLock) {
  // A self-rescheduling poller never drains the queue; the event budget
  // must convert the live-lock into an error instead of spinning forever.
  Engine eng;
  eng.set_event_limit(10'000);
  std::function<void()> poll = [&] { eng.after(Time::ns(100), poll); };
  eng.after(Time::zero(), poll);
  EXPECT_THROW(eng.run(), EventLimitError);
  EXPECT_GE(eng.events_processed(), 10'000u);
}

// --- cancellable timers (retransmit-timer support) --------------------------

TEST(EngineCancel, CancelledEventNeverRunsAndClockSkipsIt) {
  Engine eng;
  bool near_ran = false, far_ran = false;
  eng.after(Time::us(1), [&] { near_ran = true; });
  const EventId id =
      eng.at_cancellable(Time::us(100), [&] { far_ran = true; });
  EXPECT_TRUE(eng.cancel(id));
  eng.run();
  EXPECT_TRUE(near_ran);
  EXPECT_FALSE(far_ran);
  // The tombstone is skipped without advancing the clock to us(100).
  EXPECT_EQ(eng.now(), Time::us(1));
  EXPECT_EQ(eng.events_processed(), 1u);
  EXPECT_EQ(eng.events_cancelled(), 1u);
}

TEST(EngineCancel, CancelFromInsideAnEarlierEvent) {
  // The retransmit-timer shape: deliver fires first and retires the timer.
  Engine eng;
  bool timer_fired = false;
  const EventId rto =
      eng.at_cancellable(Time::us(50), [&] { timer_fired = true; });
  eng.after(Time::us(2), [&] { EXPECT_TRUE(eng.cancel(rto)); });
  eng.run();
  EXPECT_FALSE(timer_fired);
  EXPECT_EQ(eng.now(), Time::us(2));
}

TEST(EngineCancel, BoxedClosureIsFreedAtCancelNotAtRun) {
  // A capturing closure is boxed on the heap; cancel must release it
  // immediately (the armed-timer payload may hold flow references).
  Engine eng;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> watch = payload;
  const EventId id =
      eng.at_cancellable(Time::us(10), [payload] { (void)*payload; });
  payload.reset();
  EXPECT_FALSE(watch.expired());  // alive inside the armed event
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_TRUE(watch.expired());  // freed by the cancel itself
  eng.run();
}

TEST(EngineCancel, DoubleCancelReturnsFalse) {
  Engine eng;
  const EventId id = eng.at_cancellable(Time::us(1), [] {});
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));
  eng.run();
}

TEST(EngineCancel, CancelAfterFireReturnsFalse) {
  Engine eng;
  int runs = 0;
  const EventId id = eng.at_cancellable(Time::us(1), [&] { ++runs; });
  eng.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(eng.cancel(id));
}

TEST(EngineCancel, StaleIdDoesNotKillSlotReuser) {
  // ABA safety: after the original event fires, its slab slot is recycled;
  // a stale EventId kept from the first occupant must not cancel (or
  // double-free) the new one.
  Engine eng;
  const EventId stale = eng.at_cancellable(Time::us(1), [] {});
  eng.run();
  bool second_ran = false;
  // LIFO free list: this reuses the just-freed slot.
  const EventId fresh =
      eng.at_cancellable(Time::us(2), [&] { second_ran = true; });
  EXPECT_EQ(stale.slot, fresh.slot);
  EXPECT_FALSE(eng.cancel(stale));
  eng.run();
  EXPECT_TRUE(second_ran);
}

TEST(EngineCancel, InvalidIdIsRejected) {
  Engine eng;
  EXPECT_FALSE(eng.cancel(EventId{}));
  EXPECT_FALSE(eng.cancel(EventId{.slot = 12345, .seq = 7}));
}

TEST(EngineCancel, PendingEventsExcludesTombstones) {
  Engine eng;
  eng.after(Time::us(1), [] {});
  const EventId id = eng.at_cancellable(Time::us(2), [] {});
  EXPECT_EQ(eng.pending_events(), 2u);
  eng.cancel(id);
  EXPECT_EQ(eng.pending_events(), 1u);
  eng.run();
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EngineCancel, DropProcessesAndAuditsStayCleanWithArmedTimersCancelled) {
  // The finalize audit demands zero parked tombstones; a run that cancels
  // armed timers (and one that drops everything mid-flight) must both
  // come out clean.
  Engine eng;
  for (int i = 0; i < 8; ++i) {
    const EventId id = eng.at_cancellable(Time::us(10 + i), [] {});
    if (i % 2 == 0) eng.cancel(id);
  }
  eng.run();  // odd timers fire, even tombstones are skipped
  mns::audit::AuditReport report;
  eng.register_audits(report);
  EXPECT_NO_THROW(report.require_clean());

  // Now cancel armed timers and abandon the rest via drop_processes.
  Engine eng2;
  const EventId armed = eng2.at_cancellable(Time::us(5), [] {});
  eng2.at_cancellable(Time::us(6), [] {});
  eng2.cancel(armed);
  eng2.drop_processes();
  mns::audit::AuditReport report2;
  eng2.register_audits(report2);
  EXPECT_NO_THROW(report2.require_clean());
}

TEST(Cpu, AccountsComputeAndOverhead) {
  Engine eng;
  Cpu cpu(eng);
  eng.spawn([](Engine& e, Cpu& c) -> Task<> {
    co_await c.compute(Time::us(10));
    {
      MpiScope scope(c);
      EXPECT_TRUE(c.in_mpi());
      co_await c.busy(Time::us(2));
    }
    EXPECT_FALSE(c.in_mpi());
    co_await e.delay(Time::us(5));  // blocked, not busy
  }(eng, cpu));
  eng.run();
  EXPECT_EQ(cpu.compute_time(), Time::us(10));
  EXPECT_EQ(cpu.overhead_time(), Time::us(2));
  EXPECT_EQ(eng.now(), Time::us(17));
}

TEST(Cpu, ChargesTimeAtCoAwait) {
  // compute()/busy() charge their account when co_awaited — not when the
  // awaiter is created, and not when the rank resumes.
  Engine eng;
  Cpu cpu(eng);
  eng.spawn([](Engine& e, Cpu& c) -> Task<> {
    auto work = c.compute(Time::us(10));
    co_await e.delay(Time::us(1));
    EXPECT_EQ(c.compute_time(), Time::zero());
    co_await work;  // charged at 1 us, resumes at 11 us
    EXPECT_EQ(e.now(), Time::us(11));
    co_await c.busy(Time::us(3));
  }(eng, cpu));
  eng.spawn([](Engine& e, Cpu& c) -> Task<> {
    co_await e.delay(Time::us(2));
    EXPECT_EQ(c.compute_time(), Time::us(10));
    EXPECT_EQ(c.overhead_time(), Time::zero());
    co_await e.delay(Time::us(10));  // 12 us: busy charged at 11 us
    EXPECT_EQ(c.overhead_time(), Time::us(3));
  }(eng, cpu));
  eng.run();
  EXPECT_EQ(eng.now(), Time::us(14));
}

TEST(Cpu, NestedMpiScopes) {
  Engine eng;
  Cpu cpu(eng);
  {
    MpiScope a(cpu);
    EXPECT_TRUE(cpu.in_mpi());
    {
      MpiScope b(cpu);
      EXPECT_TRUE(cpu.in_mpi());
    }
    EXPECT_TRUE(cpu.in_mpi());
  }
  EXPECT_FALSE(cpu.in_mpi());
}

// Property test for the event queue: under randomized schedules mixing
// zero-delay events (now-queue) with future events (4-ary heap), pops
// must come out in strict (time, schedule-order) order. The schedule
// counter here mirrors the engine's own seq assignment: one per at()
// call, in call order.
TEST(Engine, PopOrderPropertyUnderRandomizedSchedules) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int round = 0; round < 10; ++round) {
    Engine eng;
    std::vector<std::pair<std::int64_t, std::uint64_t>> pops;
    std::uint64_t sched = 0;
    std::function<void(int)> plant = [&](int depth) {
      const std::uint64_t my = sched++;
      // 1-in-3 events land at exactly now() (the FIFO fast path); the
      // rest spread over a window wide enough to force deep heap sifts.
      const std::int64_t delay_ps =
          rng() % 3 == 0 ? 0 : static_cast<std::int64_t>(rng() % 50'000);
      eng.after(Time::ps(delay_ps), [&, my, depth] {
        pops.emplace_back(eng.now().count_ps(), my);
        if (depth < 3) {
          const int kids = static_cast<int>(rng() % 3);
          for (int k = 0; k < kids; ++k) plant(depth + 1);
        }
      });
    };
    for (int i = 0; i < 300; ++i) plant(0);
    eng.run();

    ASSERT_GE(pops.size(), 300u);
    for (std::size_t i = 1; i < pops.size(); ++i) {
      ASSERT_GE(pops[i].first, pops[i - 1].first)
          << "time regressed at pop " << i << " (round " << round << ")";
      if (pops[i].first == pops[i - 1].first) {
        ASSERT_GT(pops[i].second, pops[i - 1].second)
            << "equal-time events out of schedule order at pop " << i
            << " (round " << round << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The open root: step() leaves the running heap event's root slot open for
// its handler's first push. None of it may show through the engine's API.

TEST(EngineOpenRoot, HandlerCancelsAnotherEventButNotItself) {
  Engine eng;
  EventId self, other;
  bool self_cancelled = true, other_cancelled = false, other_ran = false;
  self = eng.at_cancellable(Time::us(1), [&] {
    self_cancelled = eng.cancel(self);  // running: no longer pending
    other_cancelled = eng.cancel(other);
  });
  other = eng.at_cancellable(Time::us(2), [&] { other_ran = true; });
  eng.run();
  EXPECT_FALSE(self_cancelled);
  EXPECT_TRUE(other_cancelled);
  EXPECT_FALSE(other_ran);
  EXPECT_EQ(eng.events_processed(), 1u);
  EXPECT_EQ(eng.events_cancelled(), 1u);
  mns::audit::AuditReport report;
  eng.register_audits(report);
  EXPECT_NO_THROW(report.require_clean());
}

TEST(EngineOpenRoot, CancelOfRunningEventSparesThePushThatReusedItsSlot) {
  // The running event's slot is free while it runs, so its handler's own
  // push lands there (LIFO free list); cancelling the running event's id
  // must not revoke that push.
  Engine eng;
  EventId self, pushed;
  bool pushed_ran = false;
  self = eng.at_cancellable(Time::us(1), [&] {
    pushed = eng.at_cancellable(Time::us(2), [&] { pushed_ran = true; });
    EXPECT_EQ(pushed.slot, self.slot);
    EXPECT_FALSE(eng.cancel(self));
  });
  eng.run();
  EXPECT_TRUE(pushed_ran);
  EXPECT_EQ(eng.events_cancelled(), 0u);
}

TEST(EngineOpenRoot, PendingEventsInsideAHandlerCountsNoHole) {
  Engine eng;
  std::vector<std::size_t> seen;
  eng.after(Time::us(1), [&] {
    seen.push_back(eng.pending_events());  // the 5 us event only
    eng.after(Time::us(1), [&] { seen.push_back(eng.pending_events()); });
    seen.push_back(eng.pending_events());  // + the push that filled the root
    eng.after(Time::us(2), [] {});
    seen.push_back(eng.pending_events());  // + a push sifted up
  });
  eng.after(Time::us(5), [&] { seen.push_back(eng.pending_events()); });
  eng.run();
  // At 2 us: the 3 us and 5 us events; at 5 us: none.
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3, 2, 0}));
}

// A plain EventFn handler that throws escapes run(); the heap must be whole
// again, so a second run() pops every remaining event in (time, seq)
// order and the finalize audits stay clean. Two throwers: one that pushes
// nothing (its root is closed by the guard) and one that throws after its
// push filled the root.
TEST(EngineOpenRoot, ThrowingHandlerLeavesTheQueueWhole) {
  for (const bool push_first : {false, true}) {
    Engine eng;
    std::mt19937_64 rng(0xBAD5EED);
    std::vector<std::pair<std::int64_t, int>> expected, pops;
    int sched = 0;
    auto plant = [&](std::int64_t at_ps) {
      const int my = sched++;
      expected.emplace_back(at_ps, my);
      eng.at(Time::ps(at_ps),
             [&, my] { pops.emplace_back(eng.now().count_ps(), my); });
    };
    auto some_ps = [&] { return 1 + static_cast<std::int64_t>(rng() % 20); };
    for (int i = 0; i < 40; ++i) plant(some_ps());
    eng.at(Time::ps(10), [&] {
      if (push_first) plant(15);
      throw std::runtime_error("handler failed");
    });
    ++sched;  // the thrower's own schedule slot
    for (int i = 0; i < 40; ++i) plant(some_ps());
    EXPECT_THROW(eng.run(), std::runtime_error);
    eng.run();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(pops, expected) << "push_first=" << push_first;
    mns::audit::AuditReport report;
    eng.register_audits(report);
    EXPECT_NO_THROW(report.require_clean());
  }
}

TEST(EngineOpenRoot, TimeLimitErrorLeavesTheNextEventQueued) {
  Engine eng;
  eng.set_time_limit(Time::us(10));
  int ran = 0;
  eng.at(Time::us(5), [&] { ++ran; });
  eng.at(Time::us(20), [&] { ++ran; });
  EXPECT_THROW(eng.run(), LivelockError);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(eng.pending_events(), 1u);
  EXPECT_EQ(eng.next_event_at_ps(), Time::us(20).count_ps());
  EXPECT_EQ(eng.now(), Time::us(5));
  eng.set_time_limit(Time::us(30));
  eng.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(eng.now(), Time::us(20));
}

// Randomized property: handlers schedule plain and cancellable events
// (some at exactly now()) and cancel random cancellable ones, their own
// id included. Every cancel must succeed exactly when its event is still
// pending, and the events that run must pop in (time, seq) order: the
// sorted reference of everything scheduled minus what was cancelled.
TEST(EngineOpenRoot, PopOrderWithCancelsMatchesSortedReference) {
  std::mt19937_64 rng(0x0DDBA11);
  for (int round = 0; round < 10; ++round) {
    Engine eng;
    struct Ev {
      std::int64_t at_ps;
      EventId id;  // valid for cancellable events
      bool ran = false, cancelled = false;
    };
    std::vector<Ev> evs;
    std::vector<std::pair<std::int64_t, std::size_t>> pops;
    std::function<void(int)> plant = [&](int depth) {
      const std::size_t my = evs.size();  // == the engine's seq order
      const std::int64_t delay_ps =
          rng() % 4 == 0 ? 0 : static_cast<std::int64_t>(rng() % 20'000);
      evs.push_back(Ev{eng.now().count_ps() + delay_ps, {}});
      auto body = [&, my, depth] {
        evs[my].ran = true;
        pops.emplace_back(eng.now().count_ps(), my);
        const int kids = depth < 4 ? static_cast<int>(rng() % 3) : 0;
        for (int k = 0; k < kids; ++k) plant(depth + 1);
        if (rng() % 2 == 0) {
          Ev& victim = evs[rng() % evs.size()];
          if (victim.id.valid()) {
            const bool pending = !victim.ran && !victim.cancelled;
            ASSERT_EQ(eng.cancel(victim.id), pending);
            victim.cancelled = victim.cancelled || pending;
          }
        }
      };
      if (rng() % 2 == 0) {
        evs[my].id = eng.at_cancellable(Time::ps(evs[my].at_ps), body);
      } else {
        eng.at(Time::ps(evs[my].at_ps), body);
      }
    };
    for (int i = 0; i < 200; ++i) plant(0);
    eng.run();

    std::vector<std::pair<std::int64_t, std::size_t>> expected;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      ASSERT_NE(evs[i].ran, evs[i].cancelled) << "event " << i;
      if (!evs[i].cancelled) expected.emplace_back(evs[i].at_ps, i);
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(pops, expected) << "round " << round;
    EXPECT_EQ(eng.pending_events(), 0u);
    mns::audit::AuditReport report;
    eng.register_audits(report);
    EXPECT_NO_THROW(report.require_clean());
  }
}

// ---------------------------------------------------------------------------
// next_event_at_ps: the queue-head probe run_until's deadline test uses.

TEST(EngineStep, NextEventTimeReportsQueueHead) {
  Engine eng;
  EXPECT_EQ(eng.next_event_at_ps(), INT64_MAX);
  eng.after(Time::us(3), [] {});
  eng.after(Time::us(1), [] {});
  EXPECT_EQ(eng.next_event_at_ps(), Time::us(1).count_ps());
  EXPECT_FALSE(eng.run_until(Time::us(2)));
  EXPECT_EQ(eng.next_event_at_ps(), Time::us(3).count_ps());
  EXPECT_TRUE(eng.run_until(Time::us(3)));
  EXPECT_EQ(eng.next_event_at_ps(), INT64_MAX);
}

TEST(EngineStep, NextEventTimePurgesTombstones) {
  Engine eng;
  const EventId a = eng.at_cancellable(Time::us(1), EventFn::make([] {}));
  const EventId b = eng.at_cancellable(Time::us(2), EventFn::make([] {}));
  int ran = 0;
  eng.after(Time::us(5), [&] { ++ran; });
  ASSERT_TRUE(eng.cancel(a));
  ASSERT_TRUE(eng.cancel(b));
  // The two cancelled heads must be skipped, not reported.
  EXPECT_EQ(eng.next_event_at_ps(), Time::us(5).count_ps());
  EXPECT_TRUE(eng.run_until(Time::us(5)));
  EXPECT_EQ(ran, 1);
}

TEST(EngineStep, NowQueueEventsReportCurrentTime) {
  Engine eng;
  std::int64_t seen = -1;
  eng.after(Time::us(2), [&] {
    eng.after(Time::zero(), [] {});  // lands in the now-queue at t = 2us
    seen = eng.next_event_at_ps();
  });
  eng.run();
  EXPECT_EQ(seen, Time::us(2).count_ps());
}

// Regression: a cancelled event sitting at the queue head inside the
// deadline used to let run_until() enter step(), which skips tombstones
// and would execute the next *live* event even if it lay beyond the
// deadline.
TEST(Engine, RunUntilIgnoresCancelledHeadAtDeadline) {
  Engine eng;
  const EventId ghost =
      eng.at_cancellable(Time::us(5), EventFn::make([] {}));
  bool late_ran = false;
  eng.after(Time::us(20), [&] { late_ran = true; });
  ASSERT_TRUE(eng.cancel(ghost));
  EXPECT_FALSE(eng.run_until(Time::us(10)));
  EXPECT_FALSE(late_ran) << "event beyond the deadline executed";
  EXPECT_TRUE(eng.run_until(Time::us(30)));
  EXPECT_TRUE(late_ran);
}

}  // namespace
