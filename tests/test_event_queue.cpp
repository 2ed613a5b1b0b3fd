/**
 * @file
 * The core's pipeline event queue (core/event_queue.hh) against the
 * two binary heaps it replaced: every pop, and the earliest waking
 * cycle after every step, must match exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/event_queue.hh"

using namespace loopsim;

namespace
{

/** The reference: a waking heap and a lazy heap, drained merged by
 *  the (cycle, type, order) comparator. */
class TwoHeapReference
{
  public:
    void
    push(Event ev, bool lazy)
    {
        ev.order = ++order;
        if (lazy || ev.type == EventType::Writeback)
            lazyHeap.push(ev);
        else
            waking.push(ev);
    }

    bool
    pop(Cycle now, Event &out)
    {
        const bool w = !waking.empty() && waking.top().cycle <= now;
        const bool l = !lazyHeap.empty() && lazyHeap.top().cycle <= now;
        if (!w && !l)
            return false;
        const bool take_lazy = l && (!w || waking.top() > lazyHeap.top());
        out = take_lazy ? lazyHeap.top() : waking.top();
        if (take_lazy)
            lazyHeap.pop();
        else
            waking.pop();
        return true;
    }

    Cycle
    nextWaking() const
    {
        return waking.empty() ? invalidCycle : waking.top().cycle;
    }

    std::size_t size() const { return waking.size() + lazyHeap.size(); }

  private:
    using Heap =
        std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;
    Heap waking;
    Heap lazyHeap;
    std::uint64_t order = 0;
};

/** The feedback types: everything but ExecStart and Writeback. */
constexpr EventType feedbackTypes[] = {
    EventType::LoadMissKill, EventType::OperandMissKill,
    EventType::TlbTrap,      EventType::OrderTrap,
    EventType::BranchRedirect, EventType::PayloadDelivery};

/** An event shaped like the core's schedule sites make it, with a
 *  per-event tag in every field its class carries, so a pop that
 *  swaps two equal-keyed events (or drops a field) is caught. */
Event
makeEvent(Cycle cycle, EventType type, std::uint64_t tag)
{
    const InstRef ref{static_cast<PoolIdx>(tag % 1000),
                      static_cast<std::uint32_t>(tag)};
    switch (type) {
      case EventType::ExecStart:
        return Event{cycle, type, 0, ref, tag};
      case EventType::Writeback:
        return Event{cycle, type, 0, InstRef{}, invalidCycle,
                     static_cast<PhysReg>(tag % 4096), tag};
      default:
        return Event{cycle, type, 0, ref, tag, invalidPhysReg,
                     invalidCycle, tag};
    }
}

/** Field-by-field equality (Event has no operator==). */
void
expectSame(const Event &got, const Event &want)
{
    EXPECT_EQ(got.cycle, want.cycle);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.order, want.order);
    EXPECT_TRUE(got.ref == want.ref);
    EXPECT_EQ(got.issueStamp, want.issueStamp);
    EXPECT_EQ(got.reg, want.reg);
    EXPECT_EQ(got.expect, want.expect);
    EXPECT_EQ(got.signalId, want.signalId);
}

} // namespace

TEST(EventQueue, MatchesTwoHeapsOnRandomTraffic)
{
    constexpr Cycle iqEx = 4;
    constexpr unsigned clusters = 8; // at most one issue per cluster a cycle
    EventQueue queue(clusters * iqEx);
    TwoHeapReference ref;
    Pcg32 rng(2024, 7);

    std::uint64_t tag = 0;
    auto both = [&](const Event &ev, bool lazy) {
        queue.push(ev, lazy);
        ref.push(ev, lazy);
    };

    std::size_t steps = 0;
    std::size_t pops = 0;
    std::size_t overflowed = 0;
    auto writeback = [&](Cycle at, Cycle ahead) {
        overflowed += ahead >= 64;
        both(makeEvent(at + ahead, EventType::Writeback, ++tag), true);
    };
    // Drain everything due, as the core does at the top of a tick. An
    // ExecStart's handler schedules its writeback from inside the
    // drain, based on the event's own (possibly overdue) cycle.
    auto drain = [&](Cycle now) {
        Event got;
        Event want;
        while (true) {
            const bool q = queue.pop(now, got);
            const bool r = ref.pop(now, want);
            ASSERT_EQ(q, r) << "at cycle " << now;
            if (!q)
                break;
            ++pops;
            ++steps;
            expectSame(got, want);
            if (HasFailure())
                return;
            if (got.type == EventType::ExecStart && rng.chance(0.7)) {
                writeback(got.cycle, rng.chance(0.05) ? rng.range(64, 400)
                                                      : rng.range(1, 24));
            }
        }
        ASSERT_EQ(queue.size(), ref.size());
        ASSERT_EQ(queue.nextWaking(), ref.nextWaking());
    };

    Cycle now = 0;
    while (steps < 120000) {
        drain(now);
        if (HasFailure())
            return;

        // Issue: constant-delay ExecStarts, lazy and waking mixed.
        const unsigned issued = rng.nextBounded(clusters + 1);
        for (unsigned i = 0; i < issued; ++i)
            both(makeEvent(now + iqEx, EventType::ExecStart, ++tag),
                 rng.chance(0.5));
        // Writebacks 1–400 cycles out, including pairs one slot-width
        // (64 cycles) apart.
        const unsigned wbs = rng.nextBounded(4);
        for (unsigned i = 0; i < wbs; ++i) {
            const Cycle ahead = rng.range(1, 400);
            writeback(now, ahead);
            if (ahead + 64 <= 400 && rng.chance(0.2))
                writeback(now, ahead + 64);
        }
        // Feedback of mixed types, often several on one cycle.
        unsigned fbs = 0;
        if (rng.chance(0.3)) {
            const Cycle at = now + rng.range(1, 12);
            fbs = 1 + rng.nextBounded(4);
            for (unsigned i = 0; i < fbs; ++i) {
                both(makeEvent(at, feedbackTypes[rng.nextBounded(6)],
                               ++tag),
                     false);
            }
        }
        ASSERT_EQ(queue.nextWaking(), ref.nextWaking());
        steps += issued + wbs + fbs;

        // Advance like the sparse wheel: a few cycles ahead, but never
        // past the earliest waking event.
        now = std::min<Cycle>(now + 1 + rng.nextBounded(6),
                              std::max(ref.nextWaking(), now + 1));
    }
    EXPECT_GT(pops, 50000u);
    EXPECT_GT(overflowed, 1000u);

    // Run the backlog out cycle by cycle.
    for (Cycle end = now + 1000; ref.size() > 0 && now < end; ++now) {
        drain(now);
        if (HasFailure())
            return;
    }
    EXPECT_EQ(ref.size(), 0u);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, FeedbackTiesPopByTypeThenOrder)
{
    EventQueue queue(4);
    queue.push(makeEvent(5, EventType::PayloadDelivery, 1));
    queue.push(makeEvent(5, EventType::BranchRedirect, 2));
    queue.push(makeEvent(5, EventType::ExecStart, 3), true);
    queue.push(makeEvent(5, EventType::LoadMissKill, 4));
    queue.push(makeEvent(5, EventType::Writeback, 5));
    queue.push(makeEvent(5, EventType::LoadMissKill, 6));
    EXPECT_EQ(queue.nextWaking(), 5u);
    EXPECT_EQ(queue.execStartCount(), 1u);
    EXPECT_EQ(queue.wakingExecStartCount(), 0u);
    EXPECT_EQ(queue.writebackCount(), 1u);
    EXPECT_EQ(queue.feedbackCount(), 4u);

    Event ev;
    EXPECT_FALSE(queue.pop(4, ev));
    std::vector<std::uint64_t> tags;
    while (queue.pop(5, ev))
        tags.push_back(ev.order);
    // Scheduling order stamps: pushes 1..6 in the order above.
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{5, 4, 6, 2, 3, 1}));
    EXPECT_EQ(queue.nextWaking(), invalidCycle);
}

TEST(EventQueue, OutOfOrderExecStartPanics)
{
    EventQueue queue(4);
    queue.push(makeEvent(10, EventType::ExecStart, 1));
    queue.push(makeEvent(10, EventType::ExecStart, 2), true);
    EXPECT_THROW(queue.push(makeEvent(9, EventType::ExecStart, 3)),
                 PanicError);
    // Past the queue's capacity (clusters × IQ-EX latency in the core)
    // a push panics too.
    queue.push(makeEvent(11, EventType::ExecStart, 4));
    queue.push(makeEvent(11, EventType::ExecStart, 5));
    EXPECT_THROW(queue.push(makeEvent(12, EventType::ExecStart, 6)),
                 PanicError);
}

TEST(EventQueue, WritebackBelowTheDrainedCyclePanics)
{
    EventQueue queue(4);
    queue.push(makeEvent(7, EventType::Writeback, 1));
    queue.push(makeEvent(300, EventType::Writeback, 2));
    Event ev;
    ASSERT_TRUE(queue.pop(7, ev));
    // Same cycle as the drain is still in order; below it is not.
    queue.push(makeEvent(7, EventType::Writeback, 3));
    EXPECT_THROW(queue.push(makeEvent(6, EventType::Writeback, 4)),
                 PanicError);
}

TEST(EventQueue, OverdueWakingEventPanics)
{
    EventQueue queue(4);
    queue.push(makeEvent(3, EventType::ExecStart, 1), true);
    queue.push(makeEvent(4, EventType::TlbTrap, 2));
    Event ev;
    // A lazy event may drain late...
    ASSERT_TRUE(queue.pop(5, ev));
    EXPECT_EQ(ev.type, EventType::ExecStart);
    // ...a waking one may not.
    EXPECT_THROW(queue.pop(5, ev), PanicError);
}
