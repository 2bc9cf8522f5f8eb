/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * cancellation, time-bounded runs, reserved slots and recycled
 * one-shots.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sim_object.hh"

namespace shrimp
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleFn([&] { order.push_back(3); }, 300);
    eq.scheduleFn([&] { order.push_back(1); }, 100);
    eq.scheduleFn([&] { order.push_back(2); }, 200);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleFn([&order, i] { order.push_back(i); }, 50);
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ManySameTickOneShotsKeepInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i) {
        // Interleave with one-shots at other ticks and at a later
        // priority, so the same-tick run is spread through the heap.
        eq.scheduleFn([&order, i] { order.push_back(i); }, 50);
        eq.scheduleFn([] {}, i % 2 ? 10 : 90);
        eq.scheduleFn([&order, i] { order.push_back(-1 - i); }, 50,
                      EventPriority::STAT);
    }
    eq.run();
    std::vector<int> expected;
    for (int i = 0; i < 1000; ++i)
        expected.push_back(i);
    for (int i = 0; i < 1000; ++i)
        expected.push_back(-1 - i);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.numProcessed(), 3000u);
}

TEST(EventQueue, PriorityOrdersWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleFn([&] { order.push_back(2); }, 50, EventPriority::CPU);
    eq.scheduleFn([&] { order.push_back(1); }, 50, EventPriority::CLOCK);
    eq.scheduleFn([&] { order.push_back(3); }, 50, EventPriority::STAT);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    bool fired = false;
    EventFunctionWrapper ev([&] { fired = true; }, "test");
    eq.schedule(&ev, 100);
    EXPECT_TRUE(ev.scheduled());
    eq.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = eq.curTick(); }, "test");
    eq.schedule(&ev, 100);
    eq.reschedule(&ev, 500);
    eq.run();
    EXPECT_EQ(fired_at, 500u);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueue, EventCanRescheduleItself)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper ev(
        [&] {
            if (++count < 5)
                eq.schedule(&ev, eq.curTick() + 10);
        },
        "self");
    eq.schedule(&ev, 10);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleFn([&] { ++count; }, 100);
    eq.scheduleFn([&] { ++count; }, 200);
    eq.scheduleFn([&] { ++count; }, 300);
    eq.runUntil(200);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.curTick(), 200u);
    eq.runUntil(1000);
    EXPECT_EQ(count, 3);
    // Clock advances to the requested time even with no events there.
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, RunRespectsEventCap)
{
    EventQueue eq;
    EventFunctionWrapper ev(
        [&] { eq.schedule(&ev, eq.curTick() + 1); }, "forever");
    eq.schedule(&ev, 1);
    std::uint64_t n = eq.run(1000);
    EXPECT_EQ(n, 1000u);
    EXPECT_FALSE(eq.empty());
    eq.deschedule(&ev);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleFn([] {}, 100);
    eq.run();
    EventFunctionWrapper ev([] {}, "late");
    EXPECT_THROW(eq.schedule(&ev, 50), std::logic_error);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    EventFunctionWrapper ev([] {}, "dup");
    eq.schedule(&ev, 100);
    EXPECT_THROW(eq.schedule(&ev, 200), std::logic_error);
    eq.deschedule(&ev);
}

TEST(EventQueue, TeardownReclaimsUnfiredOneShots)
{
    // Each one-shot holds a token reference; reclaiming the one-shot
    // releases it.
    auto token = std::make_shared<int>(0);
    auto eq = std::make_unique<EventQueue>();
    {
        EventFunctionWrapper embedded([] {}, "embedded");
        eq->schedule(&embedded, 150);
        for (int i = 0; i < 5; ++i)
            eq->scheduleFn([token] { ++*token; }, 100 + 100 * i);
        EXPECT_TRUE(eq->runOne());
        EXPECT_EQ(*token, 1);
        // `embedded` dies still scheduled: its heap entry now dangles
        // and teardown must not follow it.
    }
    EXPECT_EQ(eq->size(), 4u);
    EXPECT_EQ(token.use_count(), 5);
    eq.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 1);
}

TEST(EventQueue, ThrowingOneShotIsReclaimed)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    eq.scheduleFn(
        [token] { throw std::runtime_error("callback failed"); }, 10);
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RecycledOneShotDropsCapturesWhenFiredOrThrown)
{
    auto token = std::make_shared<int>(0);
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        eq.scheduleFn([token] { ++*token; }, eq.curTick() + 10);
        // The next event sees the capture gone: the callback died as
        // soon as it had run, and its wrapper went back to the pool.
        eq.scheduleFn([&token] { EXPECT_EQ(token.use_count(), 1); },
                      eq.curTick() + 20);
        EXPECT_EQ(token.use_count(), 2);
        eq.run();
        EXPECT_EQ(token.use_count(), 1);
    }
    eq.scheduleFn([token] { throw std::runtime_error("callback failed"); },
                  eq.curTick() + 10);
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1);

    // The thrown one-shot's wrapper is reused like any other.
    eq.scheduleFn([token] { ++*token; }, eq.curTick() + 10);
    eq.run();
    EXPECT_EQ(*token, 4);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ScheduleAtFiresWhereScheduleWouldHave)
{
    // The same history twice: once scheduling `ev` outright, once
    // reserving its slot and pushing it there from a later event.
    // Same-tick events pushed before and after the reservation, at
    // its priority and at others, see it in the same place.
    auto order = [](bool deferred) {
        std::vector<int> seen;
        EventQueue eq;
        EventFunctionWrapper ev([&seen] { seen.push_back(0); }, "slotted");
        eq.scheduleFn([&seen] { seen.push_back(1); }, 50);
        eq.scheduleFn([&seen] { seen.push_back(2); }, 50,
                      EventPriority::CPU);
        EventQueue::Slot slot;
        if (deferred)
            slot = eq.reserve(50);
        else
            eq.schedule(&ev, 50);
        eq.scheduleFn([&seen] { seen.push_back(3); }, 50);
        eq.scheduleFn([&seen] { seen.push_back(4); }, 50,
                      EventPriority::CLOCK);
        eq.scheduleFn(
            [&] {
                if (deferred)
                    eq.scheduleAt(&ev, slot);
                seen.push_back(5);
            },
            20);
        eq.run();
        return seen;
    };
    EXPECT_EQ(order(false), (std::vector<int>{5, 4, 1, 0, 3, 2}));
    EXPECT_EQ(order(true), order(false));
}

TEST(EventQueue, ReachedInsideAnEvent)
{
    EventQueue eq;
    EventQueue::Slot early = eq.reserve(100);
    EventQueue::Slot late = eq.reserve(100, EventPriority::STAT);
    EventQueue::Slot inside;
    int checks = 0;
    eq.scheduleFn(
        [&] {
            // `early` orders before this CPU-priority event, `late`
            // after it.
            EXPECT_TRUE(eq.reached(early));
            EXPECT_FALSE(eq.reached(late));
            // A priority-0 slot at this tick, reserved now, orders
            // before this event but would fire after it.
            inside = eq.reserve(100);
            EXPECT_FALSE(eq.reached(inside));
            // A clock-priority event pushed now runs next, ahead of
            // `inside`; `early` stays passed.
            eq.scheduleFn(
                [&] {
                    EXPECT_TRUE(eq.reached(early));
                    EXPECT_FALSE(eq.reached(inside));
                    ++checks;
                },
                100, EventPriority::CLOCK);
            // A priority-0 event pushed after `inside` runs after it.
            eq.scheduleFn(
                [&] {
                    EXPECT_TRUE(eq.reached(inside));
                    EXPECT_FALSE(eq.reached(late));
                    ++checks;
                },
                100);
            ++checks;
        },
        100, EventPriority::CPU);
    // Before the first run nothing is reached.
    EXPECT_FALSE(eq.reached(early));
    eq.run();
    EXPECT_EQ(checks, 3);
    // A drained run() has passed every slot reserved so far.
    EXPECT_TRUE(eq.reached(late));
    EXPECT_FALSE(eq.reached(eq.reserve(100)));
}

TEST(EventQueue, ReachedAfterRunUntil)
{
    EventQueue eq;
    EventQueue::Slot atT = eq.reserve(200, EventPriority::STAT);
    EventQueue::Slot pastT = eq.reserve(201, EventPriority::CLOCK);
    eq.scheduleFn([] {}, 100);
    eq.runUntil(200);
    EXPECT_TRUE(eq.reached(atT));
    EXPECT_FALSE(eq.reached(pastT));

    // Reserved after the call: not reached, even at tick 200 and at
    // a priority that orders before `atT`.
    EventQueue::Slot clock = eq.reserve(200, EventPriority::CLOCK);
    EventQueue::Slot cpu = eq.reserve(200, EventPriority::CPU);
    EXPECT_FALSE(eq.reached(clock));
    EXPECT_FALSE(eq.reached(cpu));
    // An event the caller then runs at tick 200 passes `clock`, not
    // `cpu`; `atT` orders after it too, but stays passed.
    bool ran = false;
    eq.scheduleFn(
        [&] {
            EXPECT_TRUE(eq.reached(atT));
            EXPECT_TRUE(eq.reached(clock));
            EXPECT_FALSE(eq.reached(cpu));
            ran = true;
        },
        200);
    eq.runUntil(200);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(eq.reached(cpu));
    EXPECT_FALSE(eq.reached(pastT));
    eq.runUntil(201);
    EXPECT_TRUE(eq.reached(pastT));
}

TEST(ElidableEvent, IdleRequestOnlyReservesItsSlot)
{
    EventQueue eq;
    std::vector<int> order;
    ElidableEvent ev(eq, [&order] { order.push_back(0); }, "elidable");
    eq.scheduleFn([&order] { order.push_back(1); }, 50);
    ev.request(50, true);
    EXPECT_TRUE(ev.pending());
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(ev.pendingAt(), 50u);
    eq.scheduleFn([&order] { order.push_back(2); }, 50);

    // Still idle: the slot stays reserved. Needed: pushed at it.
    ev.request(50, true);
    EXPECT_FALSE(ev.scheduled());
    ev.request(50, false);
    EXPECT_TRUE(ev.scheduled());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));

    // A slot reached unused stands for a firing that did nothing.
    ev.request(100, true);
    eq.runUntil(100);
    EXPECT_FALSE(ev.pending());
    EXPECT_EQ(eq.numProcessed(), 3u);

    // Cancelling drops a reserved slot.
    ev.request(150, true);
    ev.cancel();
    EXPECT_FALSE(ev.pending());
}

TEST(ClockedObject, EdgeAlignment)
{
    EventQueue eq;
    // 100 MHz -> 10 ns period.
    ClockedObject obj(eq, "clk", 100'000'000);
    EXPECT_EQ(obj.clockPeriod(), 10 * ONE_NS);
    EXPECT_EQ(obj.clockEdge(), 0u);         // aligned at t=0
    eq.scheduleFn([] {}, 3 * ONE_NS);
    eq.run();
    EXPECT_EQ(obj.clockEdge(), 10 * ONE_NS);
    EXPECT_EQ(obj.clockEdge(2), 30 * ONE_NS);
    EXPECT_EQ(obj.cyclesToTicks(7), 70 * ONE_NS);
}

TEST(Types, FreqToPeriodRounds)
{
    EXPECT_EQ(freqToPeriod(1'000'000'000), 1000u);  // 1 GHz = 1 ns
    EXPECT_EQ(freqToPeriod(60'000'000), 16667u);    // 60 MHz
    EXPECT_EQ(freqToPeriod(33'333'333), 30000u);    // Xpress bus
}

TEST(Types, PageHelpers)
{
    EXPECT_EQ(PAGE_SIZE, 4096u);
    EXPECT_EQ(pageOf(0x5123), 5u);
    EXPECT_EQ(pageBase(5), 0x5000u);
    EXPECT_EQ(pageOffset(0x5123), 0x123u);
}

} // namespace
} // namespace shrimp
