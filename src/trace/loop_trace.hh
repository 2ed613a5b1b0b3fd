/**
 * @file
 * Structured loop-event tracing: the observability layer next to the
 * integrity (watchdog/fault) and campaign (parallel executor) layers.
 *
 * The paper's argument is about loops — how many cycles feedback
 * spends in flight and what work sits speculatively exposed inside
 * each open loop. End-of-run stats show this only in aggregate; this
 * layer records every feedback delivery as a typed event carrying the
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
 * Recording is two-tier:
 *
 *  - a per-run RunRecorder owned by the Core (nullptr when tracing is
 *    off, so the hot path pays one pointer test per loop event — and
 *    nothing per cycle); events land in simulation order, which is
 *    deterministic per RunSpec.
 *  - a process-wide Collector the campaign executor feeds strictly in
 *    plan order after each campaign drains, so an assembled trace is
 *    byte-identical at any --jobs count, like the figures themselves.
 *
 * Sinks serialize a collected trace: ChromeTraceSink writes the Chrome
 * trace-event JSON that chrome://tracing and Perfetto open directly
 * (each run is a "process", each loop a track, each event a span from
 * write cycle to consume cycle); CsvTraceSink writes one row per event
 * for ad-hoc analysis. Schema details in DESIGN.md §11.
 */

#ifndef LOOPSIM_TRACE_LOOP_TRACE_HH
#define LOOPSIM_TRACE_LOOP_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
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

/**
 * Per-run event buffer, owned by the Core of a traced run. Appends
 * are O(1) amortized and happen only at feedback deliveries (a few
 * per mis-speculation), never per cycle.
 */
class RunRecorder
{
  public:
    void
    record(LoopEventType type, ThreadId tid, Cycle write_cycle,
           Cycle loop_delay, Cycle consume_cycle,
           std::uint64_t fetch_stamp)
    {
        events.push_back(LoopEvent{type, tid, write_cycle, loop_delay,
                                   consume_cycle, fetch_stamp});
    }

    const std::vector<LoopEvent> &all() const { return events; }
    std::vector<LoopEvent> take() { return std::move(events); }

  private:
    std::vector<LoopEvent> events;
};

/** One finished run's events, labelled for the trace reader. */
struct RunTrace
{
    std::string label;
    std::vector<LoopEvent> events;
};

/**
 * Serialization interface. begin()/end() bracket a whole trace; run()
 * is called once per traced run, in deterministic (plan) order.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void begin() {}
    virtual void run(const RunTrace &run) = 0;
    virtual void end() {}
};

/**
 * Chrome trace-event JSON (the format chrome://tracing and Perfetto
 * load natively). Every run is a "process" (pid = run index), every
 * loop kind a named track, every event a complete span ("ph":"X")
 * from its write cycle lasting its loop delay; the full geometry
 * rides in args. All values are integers, so output is byte-stable.
 */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &os) : out(os) {}

    void begin() override;
    void run(const RunTrace &run) override;
    void end() override;

  private:
    std::ostream &out;
    int nextPid = 0;
    bool firstEvent = true;
};

/** One CSV row per event; header matches DESIGN.md §11. */
class CsvTraceSink : public TraceSink
{
  public:
    explicit CsvTraceSink(std::ostream &os) : out(os) {}

    void begin() override;
    void run(const RunTrace &run) override;

  private:
    std::ostream &out;
    int nextRun = 0;
};

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

/** Serialize @p runs through @p sink (begin / run... / end). */
void writeTrace(TraceSink &sink, const std::vector<RunTrace> &runs);

/**
 * Serialize @p runs to @p path, choosing the sink by extension:
 * ".csv" writes CSV, anything else Chrome trace JSON.
 * @return false when the file could not be opened.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<RunTrace> &runs);

/** The trace output path (RunOptions::tracePath); "" = no file. */
std::string tracePath();
void setTracePath(const std::string &path);

/**
 * The recording hook the Core's feedback read sites use: one pointer
 * test when tracing is off.
 */
#define LOOPSIM_TRACE_LOOP_EVENT(recorder, ...)                           \
    do {                                                                  \
        if (recorder)                                                     \
            (recorder)->record(__VA_ARGS__);                              \
    } while (false)

} // namespace loopsim::trace

#endif // LOOPSIM_TRACE_LOOP_TRACE_HH
