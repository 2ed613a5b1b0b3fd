/**
 * @file
 * The loop-event trace: the Loop kind of the Core's event stream
 * (trace/recorder.hh) as LoopEvents, each a feedback delivery with its
 * full loop geometry:
 *
 *   write cycle   when the producing stage resolved the outcome
 *   loop delay    the feedback-path length the writer declared
 *   consume cycle when the initiation stage acted on it
 *
 * so `write + delay == consume` holds for every honestly-delivered
 * signal (fault injection may deliver early; the stamp keeps the
 * honest value, making cheats visible in the trace exactly as the
 * audit mode sees them).
 *
 * A process-wide collector, fed by the campaign executor strictly in
 * plan order after each campaign drains, assembles the runs, so a
 * trace is byte-identical at any --jobs count, like the figures. Two
 * writers serialize it: writeChromeTrace() writes the Chrome
 * trace-event JSON that chrome://tracing and Perfetto open directly
 * (each run is a "process", each loop a track, each event a span from
 * write cycle to consume cycle); writeCsvTrace() writes one row per
 * event for ad-hoc analysis. Schema details in DESIGN.md §11.
 */

#ifndef LOOPSIM_TRACE_LOOP_TRACE_HH
#define LOOPSIM_TRACE_LOOP_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.hh"

namespace loopsim::trace
{

/** Which of the paper's feedback loops an event belongs to. */
enum class LoopKind : std::uint8_t
{
    Branch,  ///< branch resolution -> fetch
    Load,    ///< load resolution (kills and traps) -> issue/fetch
    Operand, ///< DRA operand miss (kill + payload) -> issue
};

const char *loopKindName(LoopKind kind);

/** The concrete feedback delivery recorded. */
enum class LoopEventType : std::uint8_t
{
    BranchResolution, ///< mispredict redirect consumed at fetch
    LoadKill,         ///< load-loop mis-speculation kill at the IQ
    TlbTrap,          ///< memory trap recovered from the pipe front
    OrderTrap,        ///< load/store reorder trap refetch
    OperandKill,      ///< DRA operand-loop kill at the IQ (§5.4)
    OperandPayload,   ///< recovered operands reach the IQ payload
};

const char *loopEventName(LoopEventType type);
LoopKind loopKindOf(LoopEventType type);

/** One feedback delivery, with the full loop geometry. */
struct LoopEvent
{
    LoopEventType type = LoopEventType::BranchResolution;
    ThreadId tid = 0;
    /** Cycle the producing stage resolved the outcome. */
    Cycle writeCycle = 0;
    /** Feedback-loop length the writer declared. */
    Cycle loopDelay = 0;
    /** Cycle the initiation stage consumed the signal. */
    Cycle consumeCycle = 0;
    /** Fetch stamp of the instruction the loop repairs (0 if gone). */
    std::uint64_t fetchStamp = 0;

    bool operator==(const LoopEvent &o) const = default;
};

/** One finished run's events, labelled for the trace reader. */
struct RunTrace
{
    std::string label;
    std::vector<LoopEvent> events;
};

/**
 * Chrome trace-event JSON (the format chrome://tracing and Perfetto
 * load natively). Every run is a "process" (pid = run index), every
 * loop kind a named track, every event a complete span ("ph":"X")
 * from its write cycle lasting its loop delay; the full geometry
 * rides in args. All values are integers, so output is byte-stable.
 */
void writeChromeTrace(std::ostream &out, const std::vector<RunTrace> &runs);

/** One CSV row per event; header matches DESIGN.md §11. */
void writeCsvTrace(std::ostream &out, const std::vector<RunTrace> &runs);

/**
 * Process-wide trace collection toggle + buffer.
 *
 * collectionActive() is the gate the Core consults at construction:
 * RunOptions::traceCollection (base/options.hh), on when a trace path
 * is set and forced by setCollection() (tests).
 */
bool collectionActive();
void setCollection(bool on);

/** Append a finished run's trace. Thread-safe, but the campaign
 *  executor calls it from one thread, in plan order, after the pool
 *  drains — that ordering is what makes assembled traces
 *  byte-identical at any worker count. */
void collectRun(RunTrace run);

/** Drain everything collected so far (in collection order). */
std::vector<RunTrace> takeCollectedRuns();

/** Number of runs currently buffered (tests, telemetry). */
std::size_t collectedRunCount();

/**
 * Serialize @p runs to @p path, choosing the format by extension:
 * ".csv" writes CSV, anything else Chrome trace JSON.
 * @return false when the file could not be opened.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<RunTrace> &runs);

} // namespace loopsim::trace

#endif // LOOPSIM_TRACE_LOOP_TRACE_HH
