/**
 * @file
 * Tests for the simulation integrity layer: the invariant watchdog
 * (synthetic wedges, structural sweeps), deterministic fault
 * injection, and the fail-soft experiment/figure harness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "base/logging.hh"
#include "core_test_util.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "integrity/fault_injector.hh"
#include "integrity/sim_error.hh"
#include "integrity/watchdog.hh"
#include "sim/simulator.hh"

using namespace loopsim;

namespace
{

/**
 * A component that holds the simulation open but never retires:
 * programmable probe state for exercising the watchdog's culprit
 * heuristics and structural sweeps without a real core.
 */
class WedgedComponent : public Clocked, public IntegrityProbe
{
  public:
    void tick(Cycle) override {}
    bool done() const override { return false; }
    std::string name() const override { return "wedge"; }

    IntegritySample
    integritySample(Cycle now) const override
    {
        IntegritySample s;
        s.cycle = now;
        s.retired = retired;
        s.issued = retired;
        s.inFlight = inFlight;
        s.windowCapacity = 256;
        s.iqOccupancy = iqOccupancy;
        s.iqCapacity = 128;
        s.renamePipe = 0;
        s.pendingEvents = pendingEvents;
        s.frontendWork = 0;
        s.done = false;
        return s;
    }

    std::vector<std::string>
    structuralViolations() const override
    {
        return violations;
    }

    void
    dumpState(std::ostream &os) const override
    {
        os << "wedge state dump\n";
    }

    std::string probeName() const override { return "wedge"; }

    std::uint64_t retired = 0;
    std::size_t inFlight = 4;
    std::size_t iqOccupancy = 4;
    std::size_t pendingEvents = 0;
    std::vector<std::string> violations;
};

Config
faultConfig(double rate, const char *key)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble(key, rate);
    return cfg;
}

} // namespace

TEST(Watchdog, ConfigFromKeys)
{
    Config cfg;
    cfg.setUint("integrity.watchdog.window", 5000);
    cfg.setUint("integrity.watchdog.history", 16);
    cfg.setBool("integrity.checks.enable", true);
    cfg.setUint("integrity.checks.interval", 8);
    WatchdogConfig wc = WatchdogConfig::fromConfig(cfg);
    EXPECT_EQ(wc.window, 5000u);
    EXPECT_EQ(wc.historyDepth, 16u);
    EXPECT_TRUE(wc.structuralChecks);
    EXPECT_EQ(wc.checkInterval, 8u);

    Config bad;
    bad.setUint("integrity.watchdog.window", 0);
    EXPECT_THROW(WatchdogConfig::fromConfig(bad), FatalError);
}

TEST(Watchdog, DetectsSyntheticDeadlockWithDiagnostic)
{
    WedgedComponent wedge;
    WatchdogConfig wc;
    wc.window = 500;
    wc.historyDepth = 8;
    InvariantWatchdog dog(wedge, wc);

    Simulator sim;
    sim.add(&wedge);
    sim.add(&dog);

    try {
        sim.run(100000);
        FAIL() << "watchdog did not trip on a wedged component";
    } catch (const WatchdogError &err) {
        const WatchdogReport &rep = err.report();
        EXPECT_EQ(rep.component, "wedge");
        EXPECT_EQ(rep.window, 500u);
        EXPECT_GE(rep.now - rep.lastProgressCycle, 500u);
        // 4 IQ entries, no events in flight: the heuristic must point
        // at a lost wakeup/feedback signal.
        EXPECT_NE(rep.culprit.find("lost"), std::string::npos)
            << rep.culprit;
        EXPECT_FALSE(rep.timeline.empty());
        EXPECT_NE(rep.stateDump.find("wedge state dump"),
                  std::string::npos);
        // The rendered report carries the headline and the timeline.
        std::string text = err.what();
        EXPECT_NE(text.find("no retire progress"), std::string::npos);
        EXPECT_NE(text.find("timeline"), std::string::npos);
        EXPECT_NE(text.find("suspected stall"), std::string::npos);
    }
}

TEST(Watchdog, CulpritNamesTheStalledStructure)
{
    WedgedComponent wedge;
    WatchdogConfig wc;
    wc.window = 100;
    InvariantWatchdog dog(wedge, wc);

    // Empty machine with a wedged front end.
    wedge.inFlight = 0;
    wedge.iqOccupancy = 0;
    WatchdogReport rep = dog.buildReport(0, {});
    EXPECT_NE(rep.culprit.find("front end"), std::string::npos);

    // Full IQ: capacity-pressure deadlock.
    wedge.inFlight = 130;
    wedge.iqOccupancy = 128;
    wedge.pendingEvents = 3;
    rep = dog.buildReport(0, {});
    EXPECT_NE(rep.culprit.find("IQ full"), std::string::npos);

    // Full window, IQ drained: retire blocked at the ROB head.
    wedge.inFlight = 256;
    wedge.iqOccupancy = 1;
    rep = dog.buildReport(0, {});
    EXPECT_NE(rep.culprit.find("window full"), std::string::npos);
}

TEST(Watchdog, QuietWhileProgressing)
{
    WedgedComponent wedge;
    WatchdogConfig wc;
    wc.window = 100;
    InvariantWatchdog dog(wedge, wc);

    Simulator sim;
    sim.add(&wedge);
    sim.add(&dog);
    // Retire one op per 50-cycle chunk: always inside the window.
    for (int i = 0; i < 40; ++i) {
        wedge.retired += 1;
        sim.run(50);
    }
    SUCCEED();
}

TEST(Watchdog, StructuralSweepTripsOnViolation)
{
    WedgedComponent wedge;
    wedge.violations = {"rob out of program order: stamp 7 after 9"};
    WatchdogConfig wc;
    wc.window = 1000000; // progress check must not be the trigger
    wc.structuralChecks = true;
    wc.checkInterval = 4;
    InvariantWatchdog dog(wedge, wc);

    Simulator sim;
    sim.add(&wedge);
    sim.add(&dog);
    try {
        sim.run(100);
        FAIL() << "structural sweep did not trip";
    } catch (const WatchdogError &err) {
        ASSERT_EQ(err.report().violations.size(), 1u);
        EXPECT_NE(std::string(err.what()).find("rob out of program"),
                  std::string::npos);
    }
}

TEST(FaultInjector, DeterministicPerSeedAndIndependentStreams)
{
    FaultPlan plan;
    plan.enable = true;
    plan.seed = 42;
    plan.wakeupDelayRate = 0.25;
    plan.loadDelayRate = 0.25;

    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.wakeupDelay(), b.wakeupDelay());
        EXPECT_EQ(a.loadDelay(), b.loadDelay());
    }
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
    EXPECT_GT(a.totalInjected(), 0u);

    // Per-kind streams: draining one kind must not perturb another.
    FaultInjector c(plan);
    for (int i = 0; i < 500; ++i)
        c.wakeupDelay();
    FaultInjector d(plan);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c.loadDelay(), d.loadDelay());

    FaultPlan other = plan;
    other.seed = 43;
    FaultInjector e(other);
    std::uint64_t diff = 0;
    for (int i = 0; i < 1000; ++i)
        diff += (e.wakeupDelay() > 0) ? 1 : 0;
    EXPECT_NE(diff, a.injected(FaultKind::WakeupDelay));
}

TEST(FaultInjector, PlanFromConfigAndValidation)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setUint("integrity.fault.seed", 7);
    cfg.setDouble("integrity.fault.wakeup_drop", 0.01);
    cfg.setDouble("integrity.fault.load_delay", 0.02);
    cfg.setUint("integrity.fault.load_delay_cycles", 20);
    FaultPlan plan = FaultPlan::fromConfig(cfg);
    EXPECT_TRUE(plan.enable);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.wakeupDropRate, 0.01);
    EXPECT_DOUBLE_EQ(plan.loadDelayRate, 0.02);
    EXPECT_EQ(plan.loadDelayCycles, 20u);

    Config bad;
    bad.setBool("integrity.fault.enable", true);
    bad.setDouble("integrity.fault.wakeup_drop", 1.5);
    EXPECT_THROW(FaultPlan::fromConfig(bad), FatalError);
}

namespace
{

/** Run a small workload with one fault knob set; must still drain. */
RunResult
runFaulted(const char *key, double rate)
{
    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 8000;
    spec.warmupOps = 0;
    spec.overrides = faultConfig(rate, key);
    return runOnce(spec);
}

} // namespace

TEST(FaultInjector, ConvergentKindsDrainUnderInjection)
{
    // Each transient kind is expressed through the model's own
    // recovery machinery, so the run completes with the watchdog
    // armed; the injected count proves the knob actually fired.
    static const char *keys[] = {
        "integrity.fault.wakeup_delay",
        "integrity.fault.load_delay",
        "integrity.fault.branch_corrupt",
        "integrity.fault.port_stall",
    };
    for (const char *key : keys) {
        RunResult r = runFaulted(key, 0.02);
        EXPECT_EQ(r.retired, 8000u) << key;
        EXPECT_GT(r.scalar("faultsInjected"), 0.0) << key;
    }
}

TEST(FaultInjector, FaultedRunsAreSeedReproducible)
{
    RunResult a = runFaulted("integrity.fault.load_delay", 0.05);
    RunResult b = runFaulted("integrity.fault.load_delay", 0.05);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.scalar("faultsInjected"),
                     b.scalar("faultsInjected"));
}

TEST(Integrity, PermanentWakeupDropTripsTheWatchdog)
{
    // The acceptance scenario: a lost wakeup wedges the machine; the
    // watchdog must name the stalled structure and the non-retiring
    // window instead of a bare cycle-limit abort.
    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 8000;
    spec.warmupOps = 0;
    spec.overrides = faultConfig(1.0, "integrity.fault.wakeup_drop");
    spec.overrides.setUint("integrity.watchdog.window", 2000);

    try {
        runOnce(spec);
        FAIL() << "wedged run completed";
    } catch (const WatchdogError &err) {
        const WatchdogReport &rep = err.report();
        EXPECT_EQ(rep.component, "core");
        EXPECT_GE(rep.now - rep.lastProgressCycle, 2000u);
        EXPECT_NE(rep.culprit.find("lost"), std::string::npos)
            << rep.culprit;
        EXPECT_FALSE(rep.timeline.empty());
        // The diagnostic embeds the core's own state dump.
        EXPECT_NE(rep.stateDump.find("core"), std::string::npos);
        // The dump lists the whole event backlog by queue, and it adds
        // up to the sample the watchdog took in the same cycle.
        const std::size_t at = rep.stateDump.find("events: execStart ");
        ASSERT_NE(at, std::string::npos) << rep.stateDump;
        std::size_t exec = 0, waking = 0, writeback = 0, feedback = 0;
        ASSERT_EQ(std::sscanf(rep.stateDump.c_str() + at,
                              "events: execStart %zu (waking %zu), "
                              "writeback %zu, feedback %zu",
                              &exec, &waking, &writeback, &feedback),
                  4)
            << rep.stateDump;
        EXPECT_LE(waking, exec);
        EXPECT_EQ(exec + writeback + feedback,
                  rep.timeline.back().pendingEvents);
    }
}

TEST(Integrity, StructuralChecksPassOnAHealthyRun)
{
    RunSpec spec;
    spec.workload = resolveWorkload("gcc");
    spec.totalOps = 6000;
    spec.warmupOps = 0;
    spec.overrides.setBool("integrity.checks.enable", true);
    spec.overrides.setUint("integrity.checks.interval", 16);
    RunResult r = runOnce(spec);
    EXPECT_EQ(r.retired, 6000u);
}

TEST(Integrity, SampleCountsIssueAndRetireSinceBuild)
{
    // A hang report can span the end of warmup: both counts come from
    // the same window (since build), so neither falls when
    // beginMeasurement() resets the measured statistics.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 400; ++i) {
        const auto r = static_cast<ArchReg>(1 + i % 8);
        const auto s = static_cast<ArchReg>(1 + (i + 5) % 8);
        ops.push_back(i % 25 == 10
                          ? opbuild::load(r, r, 0x5000000 + 4096 * i)
                          : opbuild::alu(r, r, s));
    }
    for (KernelMode mode : {KernelMode::Dense, KernelMode::Sparse}) {
        SCOPED_TRACE(mode == KernelMode::Dense ? "dense" : "sparse");
        auto h = testutil::makeHarness(ops);
        Core &core = *h.core;
        h.sim.setKernelMode(mode);
        h.sim.add(&core);
        h.sim.run(200);
        ASSERT_FALSE(core.done());
        const IntegritySample warm = core.integritySample(h.sim.now());
        ASSERT_GT(warm.issued, 0u);
        ASSERT_GT(warm.retired, 0u);
        EXPECT_GE(warm.issued, warm.retired);

        core.beginMeasurement();
        const IntegritySample reset = core.integritySample(h.sim.now());
        EXPECT_EQ(reset.issued, warm.issued);
        EXPECT_EQ(reset.retired, warm.retired);

        h.sim.run(150);
        const IntegritySample later = core.integritySample(h.sim.now());
        EXPECT_GT(later.issued, warm.issued);
        EXPECT_GT(later.retired, warm.retired);
        EXPECT_GE(later.issued, later.retired);
    }
}

TEST(Experiment, CycleLimitThrowsSimErrorWithPhase)
{
    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 50000;
    spec.warmupOps = 0;
    spec.maxCycles = 64; // far too small to drain
    spec.overrides.setBool("integrity.watchdog.enable", false);

    try {
        runOnce(spec);
        FAIL() << "run finished inside an impossible budget";
    } catch (const CycleLimitError &err) {
        EXPECT_EQ(err.phase(), "measure");
        EXPECT_EQ(err.limit(), 64u);
        EXPECT_FALSE(err.stateDump().empty());
        EXPECT_EQ(err.kind(), "cycle-limit");
    }

    spec.warmupOps = 40000;
    try {
        runOnce(spec);
        FAIL() << "warmup finished inside an impossible budget";
    } catch (const CycleLimitError &err) {
        EXPECT_EQ(err.phase(), "warmup");
    }
}

TEST(Experiment, SmtOpBudgetKeepsTheRemainder)
{
    // 10001 ops over two threads used to truncate to 2 x 5000; the
    // remainder must be distributed so every requested op retires.
    RunSpec spec;
    spec.workload = resolveWorkload("m88-comp");
    spec.totalOps = 10001;
    spec.warmupOps = 0;
    RunResult r = runOnce(spec);
    EXPECT_EQ(r.retired, 10001u);
}

TEST(Experiment, RunOnceResilientFailSoft)
{
    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 4000;
    spec.warmupOps = 0;
    spec.overrides = faultConfig(1.0, "integrity.fault.wakeup_drop");
    spec.overrides.setUint("integrity.watchdog.window", 1500);

    RunResult r = runOnceResilient(spec);
    EXPECT_TRUE(r.failed);
    EXPECT_TRUE(std::isnan(r.ipc));
    EXPECT_NE(r.error.find("watchdog"), std::string::npos);
    EXPECT_EQ(r.workloadLabel, "m88");
    EXPECT_FALSE(r.pipeLabel.empty());

    // The cell runs once, on its own seeds: gcc 7_5's 500-op window
    // is empty after the default warmup, and the result says so
    // rather than carrying a number measured on another seed.
    RunSpec tiny;
    tiny.workload = resolveWorkload("gcc");
    tiny.totalOps = 500;
    setPipeline(tiny.overrides, 7, 5);
    RunResult empty = runOnceResilient(tiny);
    EXPECT_TRUE(empty.failed);
    EXPECT_EQ(empty.failKind, FailKind::Sim);
    EXPECT_NE(empty.error.find("measured window retired no ops"),
              std::string::npos);
    EXPECT_EQ(empty.pipeLabel, "7_5");

    // A healthy run passes straight through.
    RunSpec ok;
    ok.workload = resolveWorkload("m88ksim");
    ok.totalOps = 4000;
    ok.warmupOps = 0;
    RunResult good = runOnceResilient(ok);
    EXPECT_FALSE(good.failed);
    EXPECT_GT(good.ipc, 0.1);
}

TEST(Experiment, CheckRunConfigReadsEveryBuildTimeKey)
{
    RunSpec spec;
    spec.workload = resolveWorkload("gcc");
    spec.totalOps = 4000;
    EXPECT_NO_THROW(checkRunConfig(spec, effectiveRunConfig(spec)));

    // A core key and a key only the watchdog reads, each mistyped:
    // building the run finds both without simulating.
    for (const char *key : {"core.iq.entries", "integrity.watchdog.window"}) {
        Config bad = effectiveRunConfig(spec);
        bad.set(key, "abc");
        EXPECT_THROW(checkRunConfig(spec, bad), FatalError) << key;
    }
}

TEST(Experiment, SpeedupIsNanOnFailedRuns)
{
    RunResult ok;
    ok.ipc = 2.0;
    RunResult bad;
    bad.failed = true;
    EXPECT_TRUE(std::isnan(speedup(ok, bad)));
    EXPECT_TRUE(std::isnan(speedup(bad, ok)));
}

TEST(Experiment, RunOverlayAppliesToEveryRun)
{
    Config overlay;
    overlay.setBool("integrity.fault.enable", true);
    overlay.setDouble("integrity.fault.branch_corrupt", 0.05);
    setRunOverlay(overlay);

    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 5000;
    spec.warmupOps = 0;
    RunResult faulted = runOnce(spec);
    clearRunOverlay();
    RunResult clean = runOnce(spec);

    EXPECT_GT(faulted.scalar("faultsInjected"), 0.0);
    EXPECT_THROW(clean.scalar("faultsInjected"), FatalError);
}

TEST(Figures, SweepCompletesAroundAWedgedPoint)
{
    // Acceptance: one configuration of the sweep is wedged on purpose;
    // the rest of the figure must still be produced, with the bad
    // point marked failed.
    Config healthy;

    Config wedged = faultConfig(1.0, "integrity.fault.wakeup_drop");
    wedged.setUint("integrity.watchdog.window", 1500);

    FigureData fig = sweepConfigs(
        "sweep with one wedged point", {"m88ksim"},
        {{"healthy", healthy}, {"wedged", wedged}}, 4000);

    ASSERT_EQ(fig.columns.size(), 2u);
    ASSERT_EQ(fig.columns[0].values.size(), 1u);
    EXPECT_TRUE(std::isfinite(fig.columns[0].values[0]));
    EXPECT_GT(fig.columns[0].values[0], 0.1);
    EXPECT_TRUE(std::isnan(fig.columns[1].values[0]));
    ASSERT_EQ(fig.failures.size(), 1u);
    EXPECT_NE(fig.failures[0].find("watchdog"), std::string::npos);

    // The report renders the failed point and the failure footer.
    std::ostringstream os;
    printFigure(os, fig, ValueFormat::Ratio);
    EXPECT_NE(os.str().find("fail"), std::string::npos);
    EXPECT_NE(os.str().find("failed points"), std::string::npos);

    std::ostringstream csv;
    printCsv(csv, fig);
    EXPECT_EQ(csv.str().find("nan"), std::string::npos);
}

TEST(Figures, EmptyMeasuredWindowRendersAsFail)
{
    // One op after the default warmup: warmup's last 1024-cycle chunk
    // retires it, leaving the measured window empty. That is a SimError
    // now, not a zero IPC that a speedup would divide by.
    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 1;
    try {
        runOnce(spec);
        FAIL() << "an empty measured window produced a result";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), "empty-window");
    }

    FigureData fig =
        sweepConfigs("sweep with an empty window", {"m88ksim"},
                     {{"tiny", Config{}}}, 1);
    ASSERT_EQ(fig.columns.size(), 1u);
    ASSERT_EQ(fig.columns[0].values.size(), 1u);
    EXPECT_TRUE(std::isnan(fig.columns[0].values[0]));
    ASSERT_EQ(fig.failures.size(), 1u);
    EXPECT_NE(fig.failures[0].find("measured window retired no ops"),
              std::string::npos);

    std::ostringstream os;
    printFigure(os, fig, ValueFormat::Ratio);
    EXPECT_NE(os.str().find("fail"), std::string::npos);
    EXPECT_NE(os.str().find("failed points"), std::string::npos);
}
