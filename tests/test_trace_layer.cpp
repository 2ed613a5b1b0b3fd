/**
 * @file
 * Tests for the loop-event trace layer: name tables, golden sink
 * output, the process-wide collector, end-to-end event capture on
 * hand-written kernels (all three paper loops), campaign trace
 * determinism at any worker count, the loop-occupancy statistics, and
 * the kernel self-profiling hooks.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "core_test_util.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "integrity/sim_error.hh"
#include "trace/loop_trace.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

namespace
{

/** RAII guard: force trace collection on/off, drain and restore. */
struct CollectionGuard
{
    explicit CollectionGuard(bool on)
    {
        trace::takeCollectedRuns();
        trace::setCollection(on);
    }
    ~CollectionGuard()
    {
        trace::takeCollectedRuns();
        trace::setCollection(false);
    }
};

/** A two-run trace with every event type, built by hand so sink
 *  output can be compared against golden strings. */
std::vector<trace::RunTrace>
goldenRuns()
{
    std::vector<trace::RunTrace> runs;
    trace::RunTrace a;
    a.label = "gcc 5_5";
    a.events.push_back({trace::LoopEventType::BranchResolution, 0,
                        100, 7, 107, 42});
    a.events.push_back({trace::LoopEventType::LoadKill, 1,
                        200, 5, 205, 43});
    runs.push_back(std::move(a));
    trace::RunTrace b;
    b.label = "swim, dra"; // comma: exercises CSV quoting
    b.events.push_back({trace::LoopEventType::OperandKill, 0,
                        300, 3, 303, 44});
    runs.push_back(std::move(b));
    return runs;
}

/** Serialize @p runs as Chrome trace JSON into a string. */
std::string
chromeString(const std::vector<trace::RunTrace> &runs)
{
    std::ostringstream os;
    trace::writeChromeTrace(os, runs);
    return os.str();
}

/** Every event must carry honest loop geometry. */
void
expectHonestStamps(const std::vector<trace::LoopEvent> &events)
{
    for (const trace::LoopEvent &ev : events) {
        EXPECT_EQ(ev.writeCycle + ev.loopDelay, ev.consumeCycle)
            << trace::loopEventName(ev.type) << " at write cycle "
            << ev.writeCycle;
        EXPECT_GT(ev.loopDelay, 0u);
    }
}

bool
hasEvent(const std::vector<trace::LoopEvent> &events,
         trace::LoopEventType type)
{
    for (const trace::LoopEvent &ev : events) {
        if (ev.type == type)
            return true;
    }
    return false;
}

/** Kernel forcing a branch mispredict: the branch-resolution loop. */
std::vector<MicroOp>
mispredictKernel()
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(branch(1, true, /*mispredict=*/true));
    for (int i = 0; i < 20; ++i)
        ops.push_back(alu(static_cast<ArchReg>(2 + i % 8)));
    return ops;
}

/** Kernel forcing a load-miss kill: the load-resolution loop. */
std::vector<MicroOp>
loadMissKernel()
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x5000000));
    for (int i = 0; i < 12; ++i)
        ops.push_back(alu(1, 1));
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    ops.push_back(alu(3, 2)); // killed + reissued consumer
    return ops;
}

/** Kernel + config forcing a DRA operand miss (kill and payload):
 *  the operand-resolution loop (same recipe as test_core_dra). */
std::vector<MicroOp>
operandMissKernel()
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(2));    // chain head
    ops.push_back(alu(1));    // producer
    ops.push_back(alu(4, 1)); // early consumer drains the count
    for (int i = 0; i < 40; ++i)
        ops.push_back(alu(2, 2));
    MicroOp late = alu(3, 2);
    late.src[1] = 1; // late same-cluster consumer of r1
    ops.push_back(late);
    return ops;
}

Config
operandMissConfig()
{
    Config cfg;
    cfg.setBool("dra.enable", true);
    cfg.setUint("dra.insertion_bits", 1);
    cfg.setUint("core.clusters", 1);
    return cfg;
}

RunSpec
smallSpec(const std::string &workload, const Config &cfg = Config{})
{
    RunSpec spec;
    spec.workload = resolveWorkload(workload);
    spec.totalOps = 4000;
    spec.warmupOps = 1000;
    spec.overrides = cfg;
    return spec;
}

} // anonymous namespace

TEST(TraceNames, KindsEventsAndMapping)
{
    using trace::LoopEventType;
    using trace::LoopKind;
    EXPECT_STREQ(trace::loopKindName(LoopKind::Branch), "branch-loop");
    EXPECT_STREQ(trace::loopKindName(LoopKind::Load), "load-loop");
    EXPECT_STREQ(trace::loopKindName(LoopKind::Operand),
                 "operand-loop");

    EXPECT_EQ(trace::loopKindOf(LoopEventType::BranchResolution),
              LoopKind::Branch);
    EXPECT_EQ(trace::loopKindOf(LoopEventType::LoadKill),
              LoopKind::Load);
    EXPECT_EQ(trace::loopKindOf(LoopEventType::TlbTrap),
              LoopKind::Load);
    EXPECT_EQ(trace::loopKindOf(LoopEventType::OrderTrap),
              LoopKind::Load);
    EXPECT_EQ(trace::loopKindOf(LoopEventType::OperandKill),
              LoopKind::Operand);
    EXPECT_EQ(trace::loopKindOf(LoopEventType::OperandPayload),
              LoopKind::Operand);

    EXPECT_STREQ(trace::loopEventName(LoopEventType::BranchResolution),
                 "branch-resolution");
    EXPECT_STREQ(trace::loopEventName(LoopEventType::OperandPayload),
                 "operand-payload");
}

TEST(TraceSinks, ChromeGolden)
{
    const std::string expected =
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"gcc 5_5\"}},\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"branch-loop\"}},\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"load-loop\"}},\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"operand-loop\"}},\n"
        "{\"ph\":\"X\",\"pid\":0,\"tid\":0,"
        "\"name\":\"branch-resolution\",\"cat\":\"branch-loop\","
        "\"ts\":100,\"dur\":7,\"args\":{\"write_cycle\":100,"
        "\"loop_delay\":7,\"consume_cycle\":107,\"tid\":0,"
        "\"fetch_stamp\":42}},\n"
        "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"load-kill\","
        "\"cat\":\"load-loop\",\"ts\":200,\"dur\":5,"
        "\"args\":{\"write_cycle\":200,\"loop_delay\":5,"
        "\"consume_cycle\":205,\"tid\":1,\"fetch_stamp\":43}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"swim, dra\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"branch-loop\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"load-loop\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"operand-loop\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"name\":\"operand-kill\","
        "\"cat\":\"operand-loop\",\"ts\":300,\"dur\":3,"
        "\"args\":{\"write_cycle\":300,\"loop_delay\":3,"
        "\"consume_cycle\":303,\"tid\":0,\"fetch_stamp\":44}}\n"
        "]}\n";
    EXPECT_EQ(chromeString(goldenRuns()), expected);
}

TEST(TraceSinks, CsvGolden)
{
    std::ostringstream os;
    trace::writeCsvTrace(os, goldenRuns());
    const std::string expected =
        "run,label,loop,event,tid,write_cycle,loop_delay,"
        "consume_cycle,fetch_stamp\n"
        "0,gcc 5_5,branch-loop,branch-resolution,0,100,7,107,42\n"
        "0,gcc 5_5,load-loop,load-kill,1,200,5,205,43\n"
        "1,\"swim, dra\",operand-loop,operand-kill,0,300,3,303,44\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(TraceSinks, EmptyTraceIsValidJson)
{
    const std::string out = chromeString({});
    EXPECT_EQ(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
}

TEST(TraceSinks, WriteTraceFileChoosesSinkByExtension)
{
    const std::string json = "loopsim_trace_test.json";
    const std::string csv = "loopsim_trace_test.csv";
    ASSERT_TRUE(trace::writeTraceFile(json, goldenRuns()));
    ASSERT_TRUE(trace::writeTraceFile(csv, goldenRuns()));

    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    EXPECT_EQ(slurp(json), chromeString(goldenRuns()));
    EXPECT_NE(slurp(csv).find("run,label,loop"), std::string::npos);
    std::remove(json.c_str());
    std::remove(csv.c_str());

    EXPECT_FALSE(trace::writeTraceFile(
        "no-such-dir/loopsim_trace_test.json", goldenRuns()));
}

TEST(TraceCollector, ToggleBufferAndDrain)
{
    CollectionGuard guard(false);
    EXPECT_FALSE(trace::collectionActive());
    trace::setCollection(true);
    EXPECT_TRUE(trace::collectionActive());

    EXPECT_EQ(trace::collectedRunCount(), 0u);
    trace::RunTrace rt;
    rt.label = "probe";
    rt.events.push_back({trace::LoopEventType::LoadKill, 0, 1, 2, 3, 4});
    trace::collectRun(rt);
    trace::collectRun(std::move(rt));
    EXPECT_EQ(trace::collectedRunCount(), 2u);

    std::vector<trace::RunTrace> drained = trace::takeCollectedRuns();
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].label, "probe");
    ASSERT_EQ(drained[0].events.size(), 1u);
    EXPECT_EQ(drained[0].events[0].consumeCycle, 3u);
    EXPECT_EQ(trace::collectedRunCount(), 0u);
}

TEST(CoreTrace, OffByDefaultAndCostsNothing)
{
    CollectionGuard guard(false);
    auto h = makeHarness(loadMissKernel());
    h.run();
    EXPECT_FALSE(h.core->recording());
    EXPECT_TRUE(h.core->takeLoopTrace().empty());
    // The kill still happened; only the recording was off.
    EXPECT_GE(h.stat("loadMissEvents"), 1.0);
}

TEST(CoreTrace, BranchLoopEventsCarryHonestStamps)
{
    CollectionGuard guard(true);
    auto h = makeHarness(mispredictKernel());
    h.run();
    ASSERT_TRUE(h.core->recording());
    std::vector<trace::LoopEvent> events = h.core->takeLoopTrace();
    EXPECT_TRUE(hasEvent(events, trace::LoopEventType::BranchResolution));
    expectHonestStamps(events);
    // take() drains: a second call returns nothing.
    EXPECT_TRUE(h.core->takeLoopTrace().empty());
}

TEST(CoreTrace, LoadLoopEventsCarryHonestStamps)
{
    CollectionGuard guard(true);
    auto h = makeHarness(loadMissKernel());
    h.run();
    std::vector<trace::LoopEvent> events = h.core->takeLoopTrace();
    EXPECT_TRUE(hasEvent(events, trace::LoopEventType::LoadKill));
    expectHonestStamps(events);
}

TEST(CoreTrace, OperandLoopEmitsKillAndPayload)
{
    CollectionGuard guard(true);
    auto h = makeHarness(operandMissKernel(), operandMissConfig());
    h.run();
    std::vector<trace::LoopEvent> events = h.core->takeLoopTrace();
    EXPECT_TRUE(hasEvent(events, trace::LoopEventType::OperandKill));
    EXPECT_TRUE(hasEvent(events, trace::LoopEventType::OperandPayload));
    expectHonestStamps(events);
}

TEST(LoopOccupancy, OpenLoopCyclesCountWhenLoopsAreInFlight)
{
    // Each kernel opens its loop for at least the loop's delay.
    auto hb = makeHarness(mispredictKernel());
    hb.run();
    EXPECT_GT(hb.stat("branchLoopOpenCycles"), 0.0);

    auto hl = makeHarness(loadMissKernel());
    hl.run();
    EXPECT_GT(hl.stat("loadLoopOpenCycles"), 0.0);

    auto ho = makeHarness(operandMissKernel(), operandMissConfig());
    ho.run();
    EXPECT_GT(ho.stat("operandLoopOpenCycles"), 0.0);
}

TEST(LoopOccupancy, QuietKernelOpensNoLoops)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 30; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i % 8)));
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.stat("branchLoopOpenCycles"), 0.0);
    EXPECT_EQ(h.stat("operandLoopOpenCycles"), 0.0);
}

TEST(CampaignTrace, RunResultsCarryEventsIntoTheCollector)
{
    CollectionGuard guard(true);
    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc/base");
    plan.add(smallSpec("swim", operandMissConfig()), "swim/dra");

    std::vector<RunResult> results = runCampaign(plan, {}, 1);
    ASSERT_EQ(results.size(), 2u);
    // The executor moved each run's events into the collector.
    for (const RunResult &r : results)
        EXPECT_TRUE(r.loopEvents.empty());
    std::vector<trace::RunTrace> runs = trace::takeCollectedRuns();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].label, "gcc/base");
    EXPECT_EQ(runs[1].label, "swim/dra");
    EXPECT_FALSE(runs[0].events.empty());
    EXPECT_FALSE(runs[1].events.empty());
    expectHonestStamps(runs[0].events);
    expectHonestStamps(runs[1].events);
}

TEST(CampaignTrace, AssembledTraceIdenticalAtJobs1And8)
{
    CollectionGuard guard(true);
    CampaignPlan plan;
    for (const char *w : {"gcc", "swim", "turb3d"}) {
        plan.add(smallSpec(w), std::string(w) + "/base");
        plan.add(smallSpec(w, operandMissConfig()),
                 std::string(w) + "/dra");
    }

    runCampaign(plan, {}, 1);
    const std::string serial = chromeString(trace::takeCollectedRuns());
    runCampaign(plan, {}, 8);
    const std::string parallel =
        chromeString(trace::takeCollectedRuns());

    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("branch-resolution"), std::string::npos);
    EXPECT_NE(serial.find("load-kill"), std::string::npos);
    EXPECT_NE(serial.find("operand-kill"), std::string::npos);
    EXPECT_EQ(serial, parallel);
}

TEST(SimulatorKernel, SinglePassScanPreservesCycleCounts)
{
    /** Finishes after a fixed number of ticks. */
    struct Countdown : Clocked
    {
        explicit Countdown(Cycle n) : left(n) {}
        void tick(Cycle) override { if (left) --left; }
        bool done() const override { return left == 0; }
        std::string name() const override { return "countdown"; }
        Cycle left;
    };

    // The run lasts until the slowest component drains, regardless of
    // registration order (the early-exit scan must not starve later
    // components).
    Countdown fast(3), slow(9);
    Simulator sim;
    sim.add(&fast);
    sim.add(&slow);
    EXPECT_EQ(sim.run(100), 9u);
    EXPECT_FALSE(sim.hitCycleLimit());
    EXPECT_EQ(sim.now(), 9u);

    Countdown slow2(9), fast2(3);
    Simulator sim2;
    sim2.add(&slow2);
    sim2.add(&fast2);
    EXPECT_EQ(sim2.run(100), 9u);

    // Cycle-limit and zero-budget behaviour are unchanged.
    Countdown never(1000);
    Simulator sim3;
    sim3.add(&never);
    EXPECT_EQ(sim3.run(5), 5u);
    EXPECT_TRUE(sim3.hitCycleLimit());
    EXPECT_THROW(sim3.run(0), SimError);
}

TEST(SimulatorKernel, ProfilingCountsEveryTick)
{
    struct Countdown : Clocked
    {
        explicit Countdown(Cycle n, std::string label)
            : left(n), lbl(std::move(label)) {}
        void tick(Cycle) override { if (left) --left; }
        bool done() const override { return left == 0; }
        std::string name() const override { return lbl; }
        Cycle left;
        std::string lbl;
    };

    Countdown a(4, "a"), b(6, "b");
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    EXPECT_FALSE(sim.profilingEnabled());
    sim.enableProfiling(true);
    EXPECT_TRUE(sim.profilingEnabled());
    EXPECT_EQ(sim.run(100), 6u);

    std::vector<ComponentProfile> prof = sim.profile();
    ASSERT_EQ(prof.size(), 2u);
    EXPECT_EQ(prof[0].name, "a");
    EXPECT_EQ(prof[1].name, "b");
    // Every component ticks every simulated cycle.
    EXPECT_EQ(prof[0].ticks, 6u);
    EXPECT_EQ(prof[1].ticks, 6u);
    EXPECT_GE(prof[0].seconds, 0.0);
}

TEST(SimulatorKernel, ProfileSecondsSumToTheTimedRuns)
{
    // Unequal tick costs, several run() calls and a stride that
    // samples one wheel iteration in three: the rows split the timed
    // run() seconds, so they add up to them exactly, and those fit
    // inside the caller's own clock around the calls.
    struct Spin : Clocked
    {
        explicit Spin(unsigned n) : work(n) {}
        void
        tick(Cycle) override
        {
            for (unsigned i = 0; i < work; ++i)
                sink = sink + i;
        }
        bool done() const override { return false; }
        unsigned work;
        volatile unsigned sink = 0;
    };

    Spin light(100), heavy(5000);
    Simulator sim;
    sim.add(&light);
    sim.add(&heavy);
    EXPECT_EQ(sim.profiledSeconds(), 0.0);
    sim.enableProfiling(true);
    sim.setProfilingStride(3);
    using clock = std::chrono::steady_clock;
    const clock::time_point begin = clock::now();
    for (int call = 0; call < 4; ++call)
        EXPECT_EQ(sim.run(50), 50u);
    const double outside =
        std::chrono::duration<double>(clock::now() - begin).count();

    const std::vector<ComponentProfile> prof = sim.profile();
    ASSERT_EQ(prof.size(), 2u);
    EXPECT_EQ(prof[0].ticks, 200u);
    EXPECT_EQ(prof[0].measuredTicks, 67u);
    const double total = sim.profiledSeconds();
    EXPECT_GT(total, 0.0);
    EXPECT_LE(total, outside);
    EXPECT_NEAR(prof[0].seconds + prof[1].seconds, total, 1e-9 * total);
}

TEST(BenchCli, TraceFlagNeverMisreadAsOpsOrJobs)
{
    auto argv = [](std::vector<const char *> args) {
        return const_cast<char **>(args.data());
    };
    // --trace consumes its value: neither the op count nor the job
    // count may swallow the path (or a numeric-looking path).
    {
        std::vector<const char *> a{"bench", "--trace", "out.json"};
        const benchutil::BenchCli cli =
            benchutil::parseCli(3, argv(a), 1234);
        EXPECT_EQ(cli.opts.jobs, 0u);
        EXPECT_EQ(cli.ops, 1234u);
        EXPECT_EQ(cli.opts.tracePath, "out.json");
        EXPECT_TRUE(cli.opts.traceCollection);
    }
    {
        std::vector<const char *> a{"bench", "--trace", "out.json",
                                    "--jobs", "3", "8000"};
        const benchutil::BenchCli cli = benchutil::parseCli(6, argv(a));
        EXPECT_EQ(cli.opts.jobs, 3u);
        EXPECT_EQ(cli.ops, 8000u);
    }
    {
        std::vector<const char *> a{"bench", "--trace=o.csv",
                                    "--jobs=4"};
        const benchutil::BenchCli cli = benchutil::parseCli(3, argv(a));
        EXPECT_EQ(cli.opts.jobs, 4u);
        EXPECT_EQ(cli.opts.tracePath, "o.csv");
    }
    {
        // No --trace flag: falls back to the process trace path.
        processOptions().tracePath = "env.json";
        std::vector<const char *> a{"bench", "4000"};
        EXPECT_EQ(benchutil::parseCli(2, argv(a)).opts.tracePath,
                  "env.json");
        processOptions().tracePath.clear();
        EXPECT_EQ(benchutil::parseCli(2, argv(a)).opts.tracePath, "");
    }
}

TEST(TickProfiling, RunOnceReportsAMergedProfile)
{
    // Always on: every simulated run carries its kernel profile, with
    // a timed sample behind the seconds.
    for (int run = 0; run < 2; ++run) {
        RunResult r = runOnce(smallSpec("gcc"));
        ASSERT_FALSE(r.failed);
        ASSERT_FALSE(r.tickProfile.empty());
        EXPECT_EQ(r.tickProfile[0].name, "core");
        EXPECT_GT(r.tickProfile[0].ticks, 0u);
        EXPECT_GT(r.tickProfile[0].measuredTicks, 0u);
        EXPECT_GT(r.tickProfile[0].seconds, 0.0);
    }
}
