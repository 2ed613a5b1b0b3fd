/**
 * @file
 * The core's pipeline event queue: one exact-order queue per event
 * class, merged at the heads (DESIGN.md §14, "Event queues by
 * traffic").
 *
 * Events pop in (cycle, type, order) order, where order is the
 * scheduling sequence number — exactly the order of one binary heap
 * over all events. The classes split by measured traffic:
 *
 *  - ExecStart (~61% of events) has one schedule site, issue cycle +
 *    the constant IQ-EX latency, and the issue cycle never decreases,
 *    so scheduling order is already (cycle, order) order: a FIFO.
 *  - Writeback (~37%) is one type, so within a cycle it pops in
 *    scheduling order: a 64-cycle calendar of per-cycle FIFOs, with an
 *    overflow heap for the far cycles of memory misses.
 *  - Every other type (kills, traps, redirects, payload deliveries;
 *    ~2%) stays in a binary heap with the full comparator.
 *
 * Each type lives in exactly one queue, so two heads never tie on
 * (cycle, type), and a packed cycle·8 + type key picks the next one.
 */

#ifndef LOOPSIM_CORE_EVENT_QUEUE_HH
#define LOOPSIM_CORE_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "base/circular_buffer.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "core/dyn_inst.hh"

namespace loopsim
{

/** Pipeline event types; the declaration order is the same-cycle pop
 *  priority. */
enum class EventType : std::uint8_t
{
    Writeback,       ///< value leaves fwd buffer, lands in RF
    LoadMissKill,    ///< load-resolution-loop mis-speculation at IQ
    OperandMissKill, ///< DRA operand-loop mis-speculation at IQ
    TlbTrap,         ///< memory trap: front-of-pipe recovery
    OrderTrap,       ///< load/store reorder trap: refetch the load
    BranchRedirect,  ///< branch-resolution-loop repair at fetch
    ExecStart,       ///< instruction reaches the functional unit
    PayloadDelivery  ///< operand-miss recovery reaches the payload
};

struct Event
{
    Cycle cycle;
    EventType type;
    std::uint64_t order; ///< FIFO tie-break within a cycle
    InstRef ref;
    Cycle issueStamp = invalidCycle; ///< staleness check
    PhysReg reg = invalidPhysReg;    ///< Writeback payload
    Cycle expect = invalidCycle;     ///< Writeback produce check
    /** Feedback-port signal id (0 for non-feedback events). */
    std::uint64_t signalId = 0;

    bool
    operator>(const Event &o) const
    {
        if (cycle != o.cycle)
            return cycle > o.cycle;
        if (type != o.type)
            return type > o.type;
        return order > o.order;
    }
};

class EventQueue
{
  public:
    /** @param exec_capacity the most ExecStarts that can be pending
     *  at once. The core issues at most one op per cluster per cycle
     *  and every ExecStart lands a fixed IQ-EX latency later, so
     *  clusters × IQ-EX latency bounds it. */
    explicit EventQueue(std::size_t exec_capacity)
        : exec(exec_capacity), wakingExec(exec_capacity)
    {}

    /**
     * Stamp @p ev with the next scheduling order and file it by class.
     * A @p lazy ExecStart does not count towards nextWaking();
     * Writebacks are always lazy, every other type always waking. An
     * ExecStart keeps only its ref and issue stamp, a Writeback only
     * its register and expected produce cycle: the fields their
     * handlers read. The rest pop back at their defaults.
     */
    void
    push(Event ev, bool lazy = false)
    {
        // Keys pack the cycle with the type in its low three bits.
        panic_if(ev.cycle > maxCycle, "event cycle out of range");
        ev.order = ++orderCounter;
        switch (ev.type) {
          case EventType::ExecStart:
            panic_if(!exec.empty() && ev.cycle < exec.back().cycle,
                     "ExecStart scheduled out of cycle order");
            exec.push(ExecEntry{ev.cycle, ev.order, ev.ref, ev.issueStamp,
                                !lazy});
            if (!lazy)
                wakingExec.push(ev.cycle);
            break;
          case EventType::Writeback:
            writebacks.push(
                WritebackEntry{ev.cycle, ev.order, ev.expect, ev.reg});
            break;
          default:
            feedback.push(ev);
            break;
        }
    }

    /**
     * Pop the earliest event with cycle <= @p now into @p out; false
     * when none is due. Lazy events may pop late (with their own
     * cycle); a waking event that is overdue means the wake
     * computation slept through it, which panics.
     */
    bool
    pop(Cycle now, Event &out)
    {
        const std::uint64_t exec_key =
            exec.empty() ? noKey
                         : key(exec.front().cycle, EventType::ExecStart);
        const WritebackEntry *wb = writebacks.head();
        const std::uint64_t wb_key =
            wb ? key(wb->cycle, EventType::Writeback) : noKey;
        const std::uint64_t fb_key =
            feedback.empty() ? noKey
                             : key(feedback.top().cycle, feedback.top().type);
        const std::uint64_t best = std::min({exec_key, wb_key, fb_key});
        if (best == noKey || (best >> typeBits) > now)
            return false;
        bool waking = true;
        if (best == exec_key) {
            const ExecEntry &e = exec.front();
            out = Event{e.cycle, EventType::ExecStart, e.order, e.ref,
                        e.issueStamp};
            waking = e.waking;
            if (waking)
                wakingExec.pop();
            exec.pop();
        } else if (best == wb_key) {
            out = Event{wb->cycle, EventType::Writeback, wb->order,
                        InstRef{}, invalidCycle, wb->reg, wb->expect};
            waking = false;
            writebacks.pop(wb);
        } else {
            out = feedback.top();
            feedback.pop();
        }
        panic_if(waking && out.cycle < now, "event missed its cycle");
        return true;
    }

    /** Earliest cycle of a pending waking event (invalidCycle when
     *  none): the event clause of the core's wake computation. */
    Cycle
    nextWaking() const
    {
        Cycle c = wakingExec.empty() ? invalidCycle : wakingExec.front();
        if (!feedback.empty())
            c = std::min(c, feedback.top().cycle);
        return c;
    }

    /** @name Backlog by class (diagnostics) */
    /// @{
    std::size_t execStartCount() const { return exec.size(); }
    std::size_t wakingExecStartCount() const { return wakingExec.size(); }
    std::size_t writebackCount() const { return writebacks.size(); }
    std::size_t feedbackCount() const { return feedback.size(); }
    std::size_t
    size() const
    {
        return execStartCount() + writebackCount() + feedbackCount();
    }
    /// @}

  private:
    static constexpr unsigned typeBits = 3;
    static constexpr Cycle maxCycle =
        std::numeric_limits<std::uint64_t>::max() >> (typeBits + 1);
    static constexpr std::uint64_t noKey =
        std::numeric_limits<std::uint64_t>::max();

    static std::uint64_t
    key(Cycle cycle, EventType type)
    {
        return (cycle << typeBits) | static_cast<std::uint64_t>(type);
    }

    struct ExecEntry
    {
        Cycle cycle;
        std::uint64_t order;
        InstRef ref;
        Cycle issueStamp;
        bool waking;
    };

    struct WritebackEntry
    {
        Cycle cycle;
        std::uint64_t order;
        Cycle expect;
        PhysReg reg;

        bool
        operator>(const WritebackEntry &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : order > o.order;
        }
    };

    /**
     * Writebacks by cycle: 64 one-cycle FIFO buckets over
     * [base, base + 64), where base is the last drained cycle, and a
     * heap for cycles beyond. No push may land below base (a panic),
     * so every pending entry is >= base and a bucket never mixes two
     * cycles. An overflow entry for cycle c was pushed while c was
     * beyond the horizon, hence before any bucket push to c (base only
     * grows): comparing the two heads by (cycle, order) is exact.
     */
    class WritebackCalendar
    {
      public:
        void
        push(const WritebackEntry &ev)
        {
            panic_if(ev.cycle < base,
                     "writeback scheduled below the drained cycle");
            ++count;
            if (ev.cycle - base >= slotCount) {
                overflow.push(ev);
                return;
            }
            const unsigned b = static_cast<unsigned>(ev.cycle) & slotMask;
            slots[b].push_back(ev);
            occupied |= std::uint64_t{1} << b;
        }

        /** The earliest writeback, or nullptr when there is none. */
        const WritebackEntry *
        head() const
        {
            const WritebackEntry *best =
                overflow.empty() ? nullptr : &overflow.top();
            if (occupied) {
                const unsigned b = bucketHead();
                const WritebackEntry *e = &slots[b][taken[b]];
                if (!best || *best > *e)
                    best = e;
            }
            return best;
        }

        /** Remove @p h, the entry head() returned. */
        void
        pop(const WritebackEntry *h)
        {
            base = h->cycle;
            --count;
            if (!overflow.empty() && h == &overflow.top()) {
                overflow.pop();
                return;
            }
            const unsigned b = static_cast<unsigned>(h->cycle) & slotMask;
            if (++taken[b] == slots[b].size()) {
                slots[b].clear();
                taken[b] = 0;
                occupied &= ~(std::uint64_t{1} << b);
            }
        }

        std::size_t size() const { return count; }

      private:
        /** The bucket of the earliest occupied cycle >= base. */
        unsigned
        bucketHead() const
        {
            const unsigned from = static_cast<unsigned>(base) & slotMask;
            return (from + static_cast<unsigned>(std::countr_zero(
                               std::rotr(occupied, static_cast<int>(from))))) &
                   slotMask;
        }

        static constexpr unsigned slotCount = 64;
        static constexpr unsigned slotMask = slotCount - 1;
        std::array<std::vector<WritebackEntry>, slotCount> slots;
        std::array<std::size_t, slotCount> taken{};
        std::uint64_t occupied = 0;
        Cycle base = 0;
        std::size_t count = 0;
        std::priority_queue<WritebackEntry, std::vector<WritebackEntry>,
                            std::greater<WritebackEntry>>
            overflow;
    };

    CircularBuffer<ExecEntry> exec;
    /** Cycles of the waking entries of `exec`, in the same order. */
    CircularBuffer<Cycle> wakingExec;
    WritebackCalendar writebacks;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        feedback;
    std::uint64_t orderCounter = 0;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_EVENT_QUEUE_HH
