/**
 * @file
 * Loop-event trace layer: sinks and the process-wide collector. See
 * loop_trace.hh for the design overview.
 */

#include "trace/loop_trace.hh"

#include <fstream>
#include <mutex>
#include <utility>

#include "base/annotations.hh"
#include "base/options.hh"

namespace loopsim::trace
{

const char *
loopKindName(LoopKind kind)
{
    switch (kind) {
      case LoopKind::Branch: return "branch-loop";
      case LoopKind::Load: return "load-loop";
      case LoopKind::Operand: return "operand-loop";
    }
    return "unknown-loop";
}

const char *
loopEventName(LoopEventType type)
{
    switch (type) {
      case LoopEventType::BranchResolution: return "branch-resolution";
      case LoopEventType::LoadKill: return "load-kill";
      case LoopEventType::TlbTrap: return "tlb-trap";
      case LoopEventType::OrderTrap: return "order-trap";
      case LoopEventType::OperandKill: return "operand-kill";
      case LoopEventType::OperandPayload: return "operand-payload";
    }
    return "unknown-event";
}

LoopKind
loopKindOf(LoopEventType type)
{
    switch (type) {
      case LoopEventType::BranchResolution:
        return LoopKind::Branch;
      case LoopEventType::LoadKill:
      case LoopEventType::TlbTrap:
      case LoopEventType::OrderTrap:
        return LoopKind::Load;
      case LoopEventType::OperandKill:
      case LoopEventType::OperandPayload:
        return LoopKind::Operand;
    }
    return LoopKind::Branch;
}

namespace
{

/** JSON string escaping for run labels (workload names are tame, but
 *  a quote or backslash must not corrupt the file). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

/** CSV fields are quoted iff they contain a comma or quote. */
std::string
csvField(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

} // anonymous namespace

void
writeChromeTrace(std::ostream &out, const std::vector<RunTrace> &runs)
{
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first_event = true;
    auto emit = [&](const std::string &json) {
        if (!first_event)
            out << ",";
        first_event = false;
        out << "\n" << json;
    };
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string pid = std::to_string(i);
        // Metadata: name the "process" after the run, and one named
        // "thread" (track) per loop kind so Perfetto groups events by
        // loop rather than by SMT thread.
        emit("{\"ph\":\"M\",\"pid\":" + pid +
             ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
             jsonEscape(runs[i].label) + "\"}}");
        for (int kind = 0; kind < 3; ++kind) {
            emit("{\"ph\":\"M\",\"pid\":" + pid +
                 ",\"tid\":" + std::to_string(kind) +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                 std::string(loopKindName(static_cast<LoopKind>(kind))) +
                 "\"}}");
        }

        // Complete ("X") spans: ts = write cycle, dur = loop delay, so
        // the span visually covers the feedback's time in flight and
        // its right edge is the consume cycle. All integers ->
        // byte-stable.
        for (const LoopEvent &ev : runs[i].events) {
            const auto kind = static_cast<int>(loopKindOf(ev.type));
            emit("{\"ph\":\"X\",\"pid\":" + pid +
                 ",\"tid\":" + std::to_string(kind) + ",\"name\":\"" +
                 loopEventName(ev.type) +
                 "\",\"cat\":\"" +
                 loopKindName(loopKindOf(ev.type)) +
                 "\",\"ts\":" + std::to_string(ev.writeCycle) +
                 ",\"dur\":" + std::to_string(ev.loopDelay) +
                 ",\"args\":{\"write_cycle\":" +
                 std::to_string(ev.writeCycle) +
                 ",\"loop_delay\":" + std::to_string(ev.loopDelay) +
                 ",\"consume_cycle\":" + std::to_string(ev.consumeCycle) +
                 ",\"tid\":" + std::to_string(ev.tid) +
                 ",\"fetch_stamp\":" + std::to_string(ev.fetchStamp) +
                 "}}");
        }
    }
    out << "\n]}\n";
}

void
writeCsvTrace(std::ostream &out, const std::vector<RunTrace> &runs)
{
    out << "run,label,loop,event,tid,write_cycle,loop_delay,"
           "consume_cycle,fetch_stamp\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        for (const LoopEvent &ev : runs[i].events) {
            out << i << ',' << csvField(runs[i].label) << ','
                << loopKindName(loopKindOf(ev.type)) << ','
                << loopEventName(ev.type) << ','
                << static_cast<unsigned>(ev.tid) << ','
                << ev.writeCycle << ',' << ev.loopDelay << ','
                << ev.consumeCycle << ',' << ev.fetchStamp << '\n';
        }
    }
}

bool
writeTraceFile(const std::string &path,
               const std::vector<RunTrace> &runs)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeCsvTrace(out, runs);
    else
        writeChromeTrace(out, runs);
    return static_cast<bool>(out);
}

namespace
{

/** Collected run traces, appended in plan order by the campaign
 *  executor. loop:exempt(host-side trace buffer; never feeds
 *  simulated time) */
std::mutex collectMutex;

std::vector<RunTrace> &
collected()
{
    LOOPSIM_CAMPAIGN_GUARDED("collectMutex; appended in plan order")
    static std::vector<RunTrace> runs;
    return runs;
}

} // anonymous namespace

bool
collectionActive()
{
    return processOptions().traceCollection;
}

void
setCollection(bool on)
{
    processOptions().traceCollection = on;
}

void
collectRun(RunTrace run)
{
    std::lock_guard<std::mutex> lock(collectMutex);
    collected().push_back(std::move(run));
}

std::vector<RunTrace>
takeCollectedRuns()
{
    std::lock_guard<std::mutex> lock(collectMutex);
    return std::exchange(collected(), {});
}

std::size_t
collectedRunCount()
{
    std::lock_guard<std::mutex> lock(collectMutex);
    return collected().size();
}

} // namespace loopsim::trace
