/**
 * @file
 * The run's one event stream (DESIGN.md §11). Every inspection hook in
 * the Core records one typed Event through RunRecorder::record(), and
 * the ways of looking at a run are views of that stream: the live
 * LOOPSIM_DEBUG text, the loop-event trace file (the Loop kind, via
 * Core::takeLoopTrace()) and the pipeline Gantt chart and table below.
 * The Core holds a recorder only while some view is on, so an
 * uninspected run pays one pointer test per hook.
 */

#ifndef LOOPSIM_TRACE_RECORDER_HH
#define LOOPSIM_TRACE_RECORDER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/debug.hh"
#include "base/types.hh"
#include "trace/loop_trace.hh"
#include "workload/micro_op.hh"

namespace loopsim::trace
{

/** What an event records: a LOOPSIM_DEBUG flag's kind, or Loop. */
using EventKind = debug::Flag;

constexpr unsigned
kindBit(EventKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** The scoreboard transitions a Reg event names. */
enum class RegChange : std::uint8_t
{
    Alloc,
    Free,
    SetIssueReady,
    ClearIssueReady,
    SetActualReady,
    ClearActualReady,
};

/**
 * One event. `id`, `what`, `a` and `b` mean, per kind:
 *
 *   Fetch   id seq; what 1: the thread enters its wrong path here
 *   Rename  id seq; a cluster, b destination register
 *   Issue   id seq; what 0: issued (a times issued, b IQ-insert
 *           cycle); what 1: its wakeup dropped by fault injection
 *   Exec    id seq; what 1: executes with poisoned operands
 *   Retire  id seq; a produce cycle
 *   Squash  a the squash stamp (everything younger goes)
 *   Kill    id seq
 *   Dra     id seq; what 0: operand miss (a miss mask); what 1 + i:
 *           source i missed (a its register, b its produce cycle)
 *   Mem     id seq; what the MemLevel, a latency, b 1 TLB miss |
 *           2 bank conflict
 *   Pool    id slot; what 0 alloc, 1 release; a generation
 *   Reg     id register; what the RegChange; a its value
 *   Loop    id fetch stamp; what the LoopEventType; cycle the consume
 *           cycle, a the write cycle, b the loop delay
 */
struct Event
{
    EventKind kind = EventKind::Fetch;
    std::uint8_t what = 0;
    ThreadId tid = 0;
    OpClass opClass = OpClass::Nop;
    bool wrongPath = false;
    /** invalidCycle for Pool and Reg, which fire outside stage code. */
    Cycle cycle = invalidCycle;
    std::uint64_t id = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    bool operator==(const Event &o) const = default;
};

/** The live view's line for @p ev (a flag kind), newline included:
 *  `<cycle>: <Flag>: <text>`, with `-` for no cycle. */
std::string eventLine(const Event &ev);

/** The Core's per-run recorder: each event is printed live when its
 *  kind is in the print set, and kept when it is in the keep set. */
class RunRecorder
{
  public:
    RunRecorder(unsigned print, unsigned keep)
        : printKinds(print), keepKinds(keep)
    {}

    void
    record(const Event &ev)
    {
        if ((printKinds | keepKinds) & kindBit(ev.kind)) [[unlikely]]
            deliver(ev);
    }

    /** An instruction's stage event. */
    void
    record(EventKind kind, Cycle cycle, const MicroOp &op,
           std::uint8_t what = 0, std::uint64_t a = 0, std::uint64_t b = 0)
    {
        record(Event{kind, what, op.tid, op.opClass, op.wrongPath, cycle,
                     op.seq, a, b});
    }

    /** Keep @p kinds from now on as well. */
    void keep(unsigned kinds) { keepKinds |= kinds; }

    /** The kept events, in simulation order. */
    const std::vector<Event> &events() const { return kept; }

    /** Remove the kept Loop events and return them as LoopEvents. */
    std::vector<LoopEvent> takeLoopEvents();

  private:
    void deliver(const Event &ev);

    unsigned printKinds;
    unsigned keepKinds;
    std::vector<Event> kept;
};

/** The stage cycles of one retired instruction, read off the stream. */
struct PipelineRow
{
    SeqNum seq = invalidSeqNum;
    OpClass opClass = OpClass::Nop;
    Cycle fetch = invalidCycle;
    Cycle rename = invalidCycle;
    Cycle insert = invalidCycle; ///< IQ insertion
    Cycle firstIssue = invalidCycle;
    Cycle lastIssue = invalidCycle; ///< differs when reissued
    Cycle execStart = invalidCycle;
    Cycle produce = invalidCycle;
    Cycle retire = invalidCycle;
    unsigned timesIssued = 0;
};

/** One row for each of the last @p max_rows correct-path instructions
 *  that retired in @p events, in retire order; a refetch after a
 *  squash starts its row afresh. */
std::vector<PipelineRow> pipelineRows(const std::vector<Event> &events,
                                      std::size_t max_rows = SIZE_MAX);

/**
 * Draw the last @p max_rows rows as a text Gantt chart: f=fetch
 * r=rename q=IQ-insert i=issue (I=reissue) e=execute p=produce
 * c=retire, columns are cycles from the oldest fetch shown.
 */
void printGantt(std::ostream &os, const std::vector<Event> &events,
                std::size_t max_rows = 64);

/** The same rows as one numeric line per instruction. */
void printTable(std::ostream &os, const std::vector<Event> &events,
                std::size_t max_rows = 64);

} // namespace loopsim::trace

#endif // LOOPSIM_TRACE_RECORDER_HH
