/**
 * @file
 * Tests for the debug-trace flags and the event stream's views: the
 * live text line and the pipeline Gantt chart and table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "base/debug.hh"
#include "base/options.hh"
#include "trace/recorder.hh"
#include "core_test_util.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

namespace
{

/** RAII guard: restores a clean flag state after each test. */
struct FlagGuard
{
    ~FlagGuard() { debug::clearFlags(); }
};

/** The flag bit of @p f, as debug::parseFlags sets it. */
unsigned
bit(debug::Flag f)
{
    return 1u << static_cast<unsigned>(f);
}

/** A harness whose Core keeps its whole event stream; after the run,
 *  recordEvents() hands back what it kept. */
CoreHarness
recordedHarness(std::vector<MicroOp> ops)
{
    CoreHarness h = makeHarness(std::move(ops));
    h.core->recordEvents();
    return h;
}

/** A load that misses the L1 under a consumer issued on hit
 *  speculation, so the consumer is killed and reissued. */
std::vector<MicroOp>
reissueKernel()
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x5000000));
    for (int i = 0; i < 13; ++i)
        ops.push_back(alu(1, 1));
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    ops.push_back(alu(3, 2)); // killed + reissued consumer
    return ops;
}

} // anonymous namespace

TEST(DebugFlags, SetAndTest)
{
    FlagGuard guard;
    debug::clearFlags();
    EXPECT_EQ(processOptions().debugFlags, 0u);
    debug::setFlags("Issue,Squash");
    EXPECT_EQ(processOptions().debugFlags,
              bit(debug::Flag::Issue) | bit(debug::Flag::Squash));
}

TEST(DebugFlags, AllAndCaseInsensitive)
{
    FlagGuard guard;
    debug::clearFlags();
    debug::setFlags("all");
    EXPECT_EQ(processOptions().debugFlags,
              (1u << static_cast<unsigned>(debug::Flag::NumFlags)) - 1);
    debug::clearFlags();
    debug::setFlags("iSsUe");
    EXPECT_EQ(processOptions().debugFlags, bit(debug::Flag::Issue));
}

TEST(DebugFlags, UnknownFlagFatal)
{
    FlagGuard guard;
    EXPECT_THROW(debug::setFlags("Bogus"), FatalError);
}

TEST(DebugFlags, NamesAreDistinct)
{
    std::set<std::string> names;
    for (unsigned f = 0;
         f < static_cast<unsigned>(debug::Flag::NumFlags); ++f) {
        names.insert(debug::flagName(static_cast<debug::Flag>(f)));
    }
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(debug::Flag::NumFlags));
}

TEST(Timeline, RecordsRetiredInstructions)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 40; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i % 20)));
    auto h = recordedHarness(ops);
    h.run();
    const std::vector<trace::PipelineRow> rows =
        trace::pipelineRows(h.core->recordEvents());
    // One row per retired instruction, in retire order.
    ASSERT_EQ(rows.size(), 40u);
    EXPECT_EQ(rows.back().seq, 39u);
    // Stage ordering invariants on every row.
    for (const auto &e : rows) {
        EXPECT_LE(e.fetch, e.rename);
        EXPECT_LE(e.rename, e.insert);
        EXPECT_LT(e.insert, e.firstIssue);
        EXPECT_LE(e.firstIssue, e.lastIssue);
        EXPECT_LT(e.lastIssue, e.execStart);
        EXPECT_LE(e.execStart, e.produce);
        EXPECT_LE(e.produce, e.retire);
        EXPECT_GE(e.timesIssued, 1u);
    }
}

TEST(Timeline, OffByDefault)
{
    auto h = makeHarness({alu(1)});
    h.run();
    EXPECT_FALSE(h.core->recording());
}

TEST(Timeline, ReissueShowsInTheRecord)
{
    auto h = recordedHarness(reissueKernel());
    h.run();
    bool saw_reissue = false;
    for (const auto &e : trace::pipelineRows(h.core->recordEvents())) {
        if (e.timesIssued > 1) {
            saw_reissue = true;
            EXPECT_GT(e.lastIssue, e.firstIssue);
        }
    }
    EXPECT_TRUE(saw_reissue);
}

TEST(Timeline, PrintFormats)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 10; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i)));
    auto h = recordedHarness(ops);
    h.run();

    std::ostringstream gantt;
    trace::printGantt(gantt, h.core->recordEvents());
    EXPECT_NE(gantt.str().find("cycles"), std::string::npos);
    EXPECT_NE(gantt.str().find('f'), std::string::npos);
    EXPECT_NE(gantt.str().find('c'), std::string::npos);

    std::ostringstream table;
    trace::printTable(table, h.core->recordEvents());
    EXPECT_NE(table.str().find("fetch"), std::string::npos);
    EXPECT_NE(table.str().find("IntAlu"), std::string::npos);
}

TEST(Timeline, EmptyPrintIsSafe)
{
    std::ostringstream os;
    trace::printGantt(os, {});
    EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(Timeline, EmptyPrintTableIsHeaderOnly)
{
    std::ostringstream os;
    trace::printTable(os, {});
    const std::string table = os.str();
    // Header row only: no entry lines follow it.
    EXPECT_NE(table.find("seq"), std::string::npos);
    EXPECT_NE(table.find("fetch"), std::string::npos);
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 1);
}

TEST(Timeline, ViewsShowOnlyTheNewestRows)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 12; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i)));
    auto h = recordedHarness(ops);
    h.run();
    for (bool gantt : {true, false}) {
        std::ostringstream os;
        if (gantt)
            trace::printGantt(os, h.core->recordEvents(), 5);
        else
            trace::printTable(os, h.core->recordEvents(), 5);
        // A header line and the newest five rows, oldest first.
        const std::string text = os.str();
        EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
        EXPECT_EQ(text.find("\n6 "), std::string::npos);
        EXPECT_LT(text.find("\n7 "), text.find("\n11 "));
    }
}

TEST(Timeline, RefetchAfterASquashStartsTheRowAfresh)
{
    // A cold load traps on the dTLB and squashes the younger ops, which
    // are fetched again: each still gets one row, with the fetch of its
    // last trip.
    std::vector<MicroOp> ops;
    ops.push_back(load(2, invalidArchReg, 0x5000000));
    for (int i = 0; i < 40; ++i)
        ops.push_back(alu(static_cast<ArchReg>(3 + i % 10)));
    auto h = recordedHarness(ops);
    h.run();
    std::map<SeqNum, std::vector<Cycle>> fetches;
    for (const trace::Event &ev : h.core->recordEvents()) {
        if (ev.kind == trace::EventKind::Fetch && !ev.wrongPath)
            fetches[ev.id].push_back(ev.cycle);
    }
    const auto rows = trace::pipelineRows(h.core->recordEvents());
    ASSERT_EQ(rows.size(), ops.size());
    bool refetched = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].seq, i);
        refetched |= fetches[i].size() > 1;
        EXPECT_EQ(rows[i].fetch, fetches[i].back());
        EXPECT_LE(rows[i].fetch, rows[i].rename);
    }
    EXPECT_TRUE(refetched);
}

TEST(Timeline, ReissueMarkRendersInTheGantt)
{
    auto h = recordedHarness(reissueKernel());
    h.run();

    std::ostringstream os;
    trace::printGantt(os, h.core->recordEvents());
    // The reissued consumer's last issue renders as 'I' (first issue
    // stays lowercase 'i').
    EXPECT_NE(os.str().find('I'), std::string::npos);
    EXPECT_NE(os.str().find('i'), std::string::npos);
}

TEST(EventStream, PoolAndRegEventsCarryNoCycle)
{
    auto h = recordedHarness({alu(1), alu(2, 1)});
    h.run();
    bool pool = false;
    bool reg = false;
    for (const trace::Event &ev : h.core->recordEvents()) {
        if (ev.kind != trace::EventKind::Pool &&
            ev.kind != trace::EventKind::Reg)
            continue;
        pool |= ev.kind == trace::EventKind::Pool;
        reg |= ev.kind == trace::EventKind::Reg;
        EXPECT_EQ(trace::eventLine(ev).rfind("-: ", 0), 0u);
    }
    EXPECT_TRUE(pool);
    EXPECT_TRUE(reg);
}

TEST(EventStream, LiveLinesNameTheCycleAndTheFlag)
{
    trace::Event ev;
    ev.kind = trace::EventKind::Squash;
    ev.cycle = 42;
    ev.a = 7;
    EXPECT_EQ(trace::eventLine(ev),
              "42: Squash: thread 0 squash younger than stamp 7\n");
    ev.kind = trace::EventKind::Issue;
    ev.id = 3;
    ev.opClass = OpClass::Load;
    ev.a = 2;
    EXPECT_EQ(trace::eventLine(ev), "42: Issue: [t0 #3 Load] (issue #2)\n");
}

TEST(EventStream, PrintSetWritesLinesAndKeepSetStoresEvents)
{
    MicroOp op;
    op.seq = 5;
    op.opClass = OpClass::IntAlu;
    trace::RunRecorder rec(trace::kindBit(trace::EventKind::Issue),
                           trace::kindBit(trace::EventKind::Fetch));
    ::testing::internal::CaptureStderr();
    rec.record(trace::EventKind::Fetch, 10, op);
    rec.record(trace::EventKind::Issue, 12, op, 0, 1);
    rec.record(trace::EventKind::Exec, 13, op);
    // Only the Issue line prints; only the Fetch event is kept.
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "12: Issue: [t0 #5 IntAlu] (issue #1)\n");
    ASSERT_EQ(rec.events().size(), 1u);
    EXPECT_EQ(rec.events()[0].kind, trace::EventKind::Fetch);
    EXPECT_EQ(rec.events()[0].cycle, 10u);
}
