/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

namespace ssdrr::sim {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.executedEvents(), 3u);
}

TEST(EventQueue, SameTickRunsInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i) << "FIFO order violated at " << i;
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = kTickNever;
    eq.schedule(100, [&] {
        eq.scheduleAfter(25, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 125u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(20, [&] { ++ran; });
    eq.schedule(21, [&] { ++ran; });
    eq.run(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(ran, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(1, [&] { ++ran; });
    eq.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    int ran = 0;
    const EventId id = eq.schedule(10, [&] { ++ran; });
    eq.schedule(20, [&] { ++ran; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
}

TEST(EventQueue, CancelUnknownIdFails)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(0));
    EXPECT_FALSE(eq.cancel(12345));
}

TEST(EventQueue, PendingAccountsForCancellations)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.schedule(10, [&] {
        ticks.push_back(eq.now());
        eq.schedule(15, [&] { ticks.push_back(eq.now()); });
        // Same-tick insertion from within a callback also runs.
        eq.schedule(10, [&] { ticks.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 10, 15}));
}

TEST(EventQueue, CallbackMayCancelLaterEvent)
{
    EventQueue eq;
    int ran = 0;
    EventId victim = 0;
    victim = eq.schedule(50, [&] { ++ran; });
    eq.schedule(10, [&] { EXPECT_TRUE(eq.cancel(victim)); });
    eq.run();
    EXPECT_EQ(ran, 0);
    // now() advances only to the last *executed* event.
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, ManyEventsKeepTotalOrder)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 5000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 1000);
        eq.schedule(when, [&, when] {
            if (eq.now() < last)
                monotone = false;
            last = eq.now();
            EXPECT_EQ(eq.now(), when);
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(eq.executedEvents(), 5000u);
}

TEST(EventQueue, CancelOfExecutedEventFailsHarmlessly)
{
    // The old lazy-marker kernel corrupted pending() when an id that
    // had already run was cancelled; the generation-stamped slot
    // table detects staleness instead.
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 0u);

    // The slot is reused by a new event; the stale id must not be
    // able to cancel it.
    const EventId next = eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.cancel(next));
    EXPECT_EQ(eq.pending(), 0u);
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 1u);
}

TEST(EventQueue, RunUntilHonorsHorizonPastCancelledFront)
{
    // A cancelled entry inside the horizon must not let a pending
    // event beyond the horizon execute: the horizon check has to
    // apply to the first *pending* event, not the raw heap top.
    EventQueue eq;
    int ran = 0;
    const EventId a = eq.schedule(5, [&] { ++ran; });
    eq.schedule(100, [&] { ++ran; });
    EXPECT_TRUE(eq.cancel(a));
    eq.run(50);
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_LE(eq.now(), 50u);
    // Incremental drivers must be able to keep scheduling inside
    // the horizon they ran to.
    eq.schedule(51, [&] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, CancelOfCancelledSlotReusedByNewEventFails)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.cancel(a));
    eq.run(); // drains the lazily-deleted entry, frees the slot
    int ran = 0;
    eq.schedule(30, [&] { ++ran; });
    EXPECT_FALSE(eq.cancel(a)) << "stale id cancelled a reused slot";
    eq.run();
    EXPECT_EQ(ran, 1);
}

TEST(EventQueue, StressInterleavedScheduleCancelRun)
{
    // Deterministic adversarial mix of schedule/cancel/run against a
    // reference model. Exercises slot reuse, cancels of pending,
    // executed, cancelled and unknown ids, and FIFO ordering within
    // a tick.
    EventQueue eq;
    std::uint64_t rng = 0x1234567ull;
    auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    struct Tracked {
        EventId id;
        bool cancelled = false;
        bool executed = false;
    };
    std::vector<Tracked> events;
    std::uint64_t executed_count = 0;
    std::uint64_t expected_executed = 0;

    for (int round = 0; round < 200; ++round) {
        // Schedule a burst.
        const int burst = 1 + static_cast<int>(next_rand() % 8);
        for (int i = 0; i < burst; ++i) {
            const Tick when = eq.now() + next_rand() % 50;
            const std::size_t slot = events.size();
            events.push_back(Tracked{0});
            events[slot].id = eq.schedule(when, [&events, slot,
                                                 &executed_count] {
                events[slot].executed = true;
                ++executed_count;
            });
        }
        // Cancel a few random ids (any state).
        for (int i = 0; i < 3; ++i) {
            Tracked &t = events[next_rand() % events.size()];
            const bool ok = eq.cancel(t.id);
            const bool was_live = !t.cancelled && !t.executed;
            EXPECT_EQ(ok, was_live);
            if (ok)
                t.cancelled = true;
        }
        // Cancel an id that never existed.
        EXPECT_FALSE(eq.cancel(0));
        // Periodically run part or all of the timeline.
        if (round % 5 == 4) {
            eq.run(eq.now() + next_rand() % 100);
        }
        // pending() must always equal the model's live count at
        // sync points after a full drain.
        if (round % 20 == 19) {
            eq.run();
            std::size_t live = 0;
            for (const Tracked &t : events)
                if (!t.cancelled && !t.executed)
                    ++live;
            EXPECT_EQ(live, 0u);
            EXPECT_EQ(eq.pending(), 0u);
        }
    }
    eq.run();
    for (const Tracked &t : events) {
        EXPECT_NE(t.cancelled, t.executed)
            << "event must either cancel or execute, never both/neither";
        if (t.executed)
            ++expected_executed;
    }
    EXPECT_EQ(executed_count, expected_executed);
}

TEST(EventQueue, ScheduleBatchRunsInVectorOrderAndCountsEach)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventQueue::Callback> cbs;
    for (int i = 0; i < 5; ++i)
        cbs.emplace_back([&order, i] { order.push_back(i); });
    eq.schedule(10, [&order] { order.push_back(-1); });
    eq.scheduleBatch(10, std::move(cbs));
    eq.schedule(10, [&order] { order.push_back(-2); });
    eq.run();
    // One heap event, but it sequences like five schedule() calls
    // made back-to-back between the two neighbours.
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, -2}));
    EXPECT_EQ(eq.executedEvents(), 7u)
        << "each batched callback must count as one executed event";
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, ScheduleBatchSameTickReschedulesSequenceAfterBatch)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventQueue::Callback> cbs;
    cbs.emplace_back([&] {
        order.push_back(0);
        // Scheduled mid-batch at the same tick: must run after every
        // batched callback, exactly as with individual schedules.
        eq.schedule(10, [&order] { order.push_back(9); });
    });
    cbs.emplace_back([&order] { order.push_back(1); });
    eq.scheduleBatch(10, std::move(cbs));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
}

TEST(EventQueue, CallbackMayCancelSameTickLaterEventMidDrain)
{
    // The drain-tick loop extracts the whole tick before running any
    // of it, so a cancellation of a same-tick sibling lands *after*
    // extraction; each entry must re-check its slot at execution
    // time for the cancel to be honored.
    EventQueue eq;
    std::vector<int> order;
    EventId victim = 0;
    eq.schedule(10, [&] {
        order.push_back(0);
        EXPECT_TRUE(eq.cancel(victim));
    });
    victim = eq.schedule(10, [&order] { order.push_back(1); });
    eq.schedule(10, [&order] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
    EXPECT_EQ(eq.executedEvents(), 2u)
        << "a cancelled-mid-drain entry must not count as executed";
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, NextPendingTickIsAConstPureProbe)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextPendingTick(), kTickNever);
    const EventId a = eq.schedule(30, [] {});
    eq.schedule(50, [] {});

    // Const-qualified: the executor probes through a const path, so
    // any heap mutation inside would fail to compile.
    const EventQueue &ceq = eq;
    EXPECT_EQ(ceq.nextPendingTick(), 30u);

    // Repeated probes are idempotent and leave the queue untouched.
    EXPECT_EQ(ceq.nextPendingTick(), 30u);
    EXPECT_EQ(eq.pending(), 2u);

    // cancel() restores the root-is-pending invariant eagerly, so
    // the probe never sees (or has to clean up) a cancelled root.
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_EQ(ceq.nextPendingTick(), 50u);
    eq.run();
    EXPECT_EQ(ceq.nextPendingTick(), kTickNever);
}

/**
 * Seeded stress script interleaving schedule, scheduleBatch, cancel
 * and partial run() calls, executed twice: once with bursts routed
 * through scheduleBatch, once with every callback scheduled
 * individually. The drain-tick contract says the two are
 * observationally identical — same execution order, same
 * executedEvents — for ANY script that never cancels a batched
 * callback (the documented restriction on scheduleBatch).
 */
TEST(EventQueue, StressBatchedMatchesUnbatched)
{
    struct Observation {
        std::vector<int> order;
        std::uint64_t executed;
        Tick end;
    };

    auto run_script = [](bool batched) {
        EventQueue eq;
        Observation obs;
        std::uint64_t rng = 0x9e3779b97f4a7c15ull;
        auto next_rand = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        };
        int tag = 0;
        // Ids of individually scheduled (cancellable) events, by
        // logical position — the positions match across variants
        // even though the id values do not.
        std::vector<EventId> cancellable;

        for (int round = 0; round < 120; ++round) {
            const std::uint64_t kind = next_rand() % 4;
            if (kind == 0) {
                // A same-tick burst.
                const Tick when = eq.now() + next_rand() % 40;
                const int n = 2 + static_cast<int>(next_rand() % 6);
                if (batched) {
                    std::vector<EventQueue::Callback> cbs;
                    for (int i = 0; i < n; ++i) {
                        cbs.emplace_back([&obs, tag] {
                            obs.order.push_back(tag);
                        });
                        ++tag;
                    }
                    eq.scheduleBatch(when, std::move(cbs));
                } else {
                    for (int i = 0; i < n; ++i) {
                        eq.schedule(when, [&obs, tag] {
                            obs.order.push_back(tag);
                        });
                        ++tag;
                    }
                }
            } else if (kind == 1) {
                // A lone cancellable event.
                const Tick when = eq.now() + next_rand() % 40;
                cancellable.push_back(
                    eq.schedule(when, [&obs, tag] {
                        obs.order.push_back(tag);
                    }));
                ++tag;
            } else if (kind == 2 && !cancellable.empty()) {
                // Cancel by logical position; both variants pick the
                // same position and observe the same success/failure
                // (the event is live in one iff live in the other).
                eq.cancel(
                    cancellable[next_rand() % cancellable.size()]);
            } else {
                // Drain part of the timeline.
                eq.run(eq.now() + next_rand() % 60);
            }
        }
        eq.run();
        obs.executed = eq.executedEvents();
        obs.end = eq.now();
        return obs;
    };

    const Observation batched = run_script(true);
    const Observation unbatched = run_script(false);
    EXPECT_EQ(batched.order, unbatched.order)
        << "batched bursts must execute in the same global order as "
           "individually scheduled ones";
    EXPECT_EQ(batched.executed, unbatched.executed)
        << "scheduleBatch must credit executedEvents per callback";
    EXPECT_EQ(batched.end, unbatched.end);
    EXPECT_GT(batched.executed, 0u);
}

TEST(EventQueue, ReservedSeqRunsBeforeLaterScheduledSameTickEvent)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&order] { order.push_back(0); });
    const std::uint64_t seq = eq.reserveSeqs(1);
    eq.schedule(10, [&order] { order.push_back(3); });
    // Pushed last, from a callback at an earlier tick, yet it ties
    // as if it had been scheduled when its number was reserved.
    eq.schedule(5, [&] {
        eq.schedule(10, [&order] { order.push_back(4); });
        eq.scheduleReserved(10, seq, [&order] { order.push_back(1); });
        order.push_back(-1);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 3, 4}));
    EXPECT_EQ(eq.executedEvents(), 5u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, OutOfOrderReservedEntriesRunInSeqOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t seq0 = eq.reserveSeqs(6);
    eq.schedule(20, [&order] { order.push_back(9); });
    for (const int i : {3, 0, 4, 1, 2})
        eq.scheduleReserved(20, seq0 + i, [&order, i] {
            order.push_back(i);
        });
    // The tick still decides first: the largest reserved number at
    // an earlier tick runs before all of them.
    eq.scheduleReserved(15, seq0 + 5, [&order] { order.push_back(5); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{5, 0, 1, 2, 3, 4, 9}));
    EXPECT_EQ(eq.executedEvents(), 7u);
}

TEST(EventQueuePanic, UnreservedSeqPanics)
{
    EventQueue eq;
    const std::uint64_t seq0 = eq.reserveSeqs(2);
    EXPECT_THROW(eq.scheduleReserved(10, seq0 + 2, [] {}),
                 std::logic_error);
    EXPECT_THROW(eq.scheduleReserved(10, 0, [] {}), std::logic_error);
    EXPECT_EQ(eq.pending(), 0u);
    eq.scheduleReserved(10, seq0 + 1, [] {});
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueuePanic, ReservedEntryOntoDrainingTickPanics)
{
    EventQueue eq;
    const std::uint64_t seq = eq.reserveSeqs(1);
    // Tick 10's entries are extracted before this callback runs; a
    // reserved (smaller) sequence number can no longer run in order.
    eq.schedule(10, [&eq, seq] { eq.scheduleReserved(10, seq, [] {}); });
    EXPECT_THROW(eq.run(), std::logic_error);

    // Outside run() the tick is not being drained: now() is legal,
    // and so is any later tick from inside a callback.
    std::vector<int> order;
    const std::uint64_t more = eq.reserveSeqs(2);
    eq.scheduleReserved(eq.now(), more, [&] {
        order.push_back(0);
        eq.scheduleReserved(11, more + 1,
                            [&order] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), 11u);
}

TEST(EventQueuePanic, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueuePanic, NullCallbackPanics)
{
    EventQueue eq;
    EXPECT_THROW(eq.schedule(10, EventQueue::Callback{}),
                 std::logic_error);
}

} // namespace
} // namespace ssdrr::sim
