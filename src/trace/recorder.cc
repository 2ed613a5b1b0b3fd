/**
 * @file
 * The event stream's views: the live text line, the loop-trace
 * extraction and the Gantt chart and table. See recorder.hh.
 */

#include "trace/recorder.hh"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "mem/hierarchy.hh"

namespace loopsim::trace
{

std::string
eventLine(const Event &ev)
{
    std::ostringstream os;
    os << (ev.cycle == invalidCycle ? "-" : std::to_string(ev.cycle))
       << ": " << debug::flagName(ev.kind) << ": ";
    if (ev.kind < EventKind::Pool && ev.kind != EventKind::Squash) {
        os << "[t" << int(ev.tid) << " #" << ev.id << " "
           << opClassName(ev.opClass) << (ev.wrongPath ? " WP]" : "]");
    }
    switch (ev.kind) {
      case EventKind::Fetch:
        os << (ev.what ? " (enters wrong path)" : "");
        break;
      case EventKind::Rename:
        os << " cluster " << ev.a << " pdest " << ev.b;
        break;
      case EventKind::Issue:
        os << (ev.what ? " wakeup dropped (fault injection)"
                       : " (issue #" + std::to_string(ev.a) + ")");
        break;
      case EventKind::Exec:
        os << (ev.what ? " executes with poisoned operands" : "");
        break;
      case EventKind::Squash:
        os << "thread " << int(ev.tid) << " squash younger than stamp "
           << ev.a;
        break;
      case EventKind::Kill:
        os << " killed/reverted";
        break;
      case EventKind::Dra:
        if (ev.what == 0)
            os << " operand miss, mask " << ev.a;
        else
            os << " [miss] src" << ev.what - 1 << " preg " << ev.a
               << " produced " << ev.b;
        break;
      case EventKind::Mem:
        os << " -> " << memLevelName(static_cast<MemLevel>(ev.what))
           << " lat " << ev.a << (ev.b & 1 ? " TLB-MISS" : "")
           << (ev.b & 2 ? " BANK-CONFLICT" : "");
        break;
      case EventKind::Pool:
        os << "[pool " << ev.id << "] " << (ev.what ? "release" : "alloc")
           << " gen " << ev.a;
        break;
      case EventKind::Reg: {
        static constexpr const char *changes[] = {
            "alloc producerIdx", "free", "setIssueReady",
            "clearIssueReady", "setActualReady", "clearActualReady"};
        os << "[preg " << ev.id << "] " << changes[ev.what] << " " << ev.a;
        break;
      }
      default: // Retire
        break;
    }
    os << "\n";
    return os.str();
}

void
RunRecorder::deliver(const Event &ev)
{
    if (printKinds & kindBit(ev.kind)) {
        // One write per line, so concurrent workers cannot interleave
        // mid-line.
        const std::string line = eventLine(ev);
        std::cerr.write(line.data(),
                        static_cast<std::streamsize>(line.size()));
    }
    if (keepKinds & kindBit(ev.kind))
        kept.push_back(ev);
}

std::vector<LoopEvent>
RunRecorder::takeLoopEvents()
{
    std::vector<LoopEvent> loops;
    std::erase_if(kept, [&](const Event &ev) {
        if (ev.kind != EventKind::Loop)
            return false;
        loops.push_back({static_cast<LoopEventType>(ev.what), ev.tid, ev.a,
                         ev.b, ev.cycle, ev.id});
        return true;
    });
    return loops;
}

std::vector<PipelineRow>
pipelineRows(const std::vector<Event> &events, std::size_t max_rows)
{
    std::vector<PipelineRow> rows;
    std::map<std::pair<ThreadId, SeqNum>, PipelineRow> open;
    for (const Event &ev : events) {
        if (ev.wrongPath || ev.kind > EventKind::Retire)
            continue;
        PipelineRow &row = open[{ev.tid, ev.id}];
        switch (ev.kind) {
          case EventKind::Fetch:
            row = PipelineRow{ev.id, ev.opClass};
            row.fetch = ev.cycle;
            break;
          case EventKind::Rename:
            row.rename = ev.cycle;
            break;
          case EventKind::Issue:
            if (ev.what)
                break;
            if (row.firstIssue == invalidCycle)
                row.firstIssue = ev.cycle;
            row.lastIssue = ev.cycle;
            row.timesIssued = static_cast<unsigned>(ev.a);
            row.insert = ev.b;
            break;
          case EventKind::Exec:
            row.execStart = ev.cycle;
            break;
          default: // Retire
            row.retire = ev.cycle;
            row.produce = ev.a;
            rows.push_back(row);
            open.erase({ev.tid, ev.id});
        }
    }
    rows.erase(rows.begin(), rows.end() - std::min(rows.size(), max_rows));
    return rows;
}

void
printTable(std::ostream &os, const std::vector<Event> &events,
           std::size_t max_rows)
{
    os << std::left << std::setw(8) << "seq" << std::setw(13) << "op"
       << std::right << std::setw(8) << "fetch" << std::setw(8) << "ren"
       << std::setw(8) << "iq" << std::setw(8) << "iss" << std::setw(8)
       << "exec" << std::setw(8) << "prod" << std::setw(8) << "ret"
       << std::setw(5) << "n" << "\n";
    for (const PipelineRow &e : pipelineRows(events, max_rows)) {
        os << std::left << std::setw(8) << e.seq << std::setw(13)
           << opClassName(e.opClass) << std::right << std::setw(8)
           << e.fetch << std::setw(8) << e.rename << std::setw(8)
           << e.insert << std::setw(8) << e.lastIssue << std::setw(8)
           << e.execStart << std::setw(8) << e.produce << std::setw(8)
           << e.retire << std::setw(5) << e.timesIssued << "\n";
    }
}

void
printGantt(std::ostream &os, const std::vector<Event> &events,
           std::size_t max_rows)
{
    const std::vector<PipelineRow> rows = pipelineRows(events, max_rows);
    if (rows.empty()) {
        os << "(timeline empty)\n";
        return;
    }

    Cycle lo = invalidCycle;
    Cycle hi = 0;
    for (const PipelineRow &e : rows) {
        lo = std::min(lo, e.fetch);
        hi = std::max(hi, e.retire);
    }
    // Compress to at most ~100 columns.
    const Cycle scale = (hi - lo + 100) / 100;
    const auto col = [&](Cycle c) {
        return static_cast<std::size_t>((c - lo) / scale);
    };

    os << "cycles " << lo << ".." << hi;
    if (scale > 1)
        os << " (1 column = " << scale << " cycles)";
    os << "\n";

    for (const PipelineRow &e : rows) {
        std::string row(col(hi) + 1, '.');
        // Later stages win collisions.
        const auto mark = [&](Cycle c, char m) {
            if (c != invalidCycle && c >= lo && c <= hi)
                row[col(c)] = m;
        };
        mark(e.fetch, 'f');
        mark(e.rename, 'r');
        mark(e.insert, 'q');
        mark(e.firstIssue, 'i');
        if (e.timesIssued > 1)
            mark(e.lastIssue, 'I');
        mark(e.execStart, 'e');
        mark(e.produce, 'p');
        mark(e.retire, 'c');

        os << std::left << std::setw(7) << e.seq << std::setw(12)
           << opClassName(e.opClass) << row << "\n";
    }
}

} // namespace loopsim::trace
