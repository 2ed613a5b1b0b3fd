/**
 * @file
 * Dense-vs-sparse kernel differential tests.
 *
 * The event-wheel kernel (sim/simulator.cc, runSparse) is required to
 * be *bit-identical* to the dense cycle-by-cycle reference kernel: the
 * wheel may only skip cycles in which no component would have changed
 * state, and span-weighted statistics accounting must reproduce the
 * per-cycle sums exactly. These tests run every figure workload under
 * both kernels through the real experiment harness and assert that
 * cycle counts, retired-op counts and every exported statistic agree
 * exactly — including under the loop-discipline audit and with the
 * fault injector perturbing the recovery paths.
 *
 * runOnce() is used deliberately instead of the campaign layer: the
 * result store memoizes by configuration fingerprint, which does not
 * (and must not — the kernels are equivalent) include the kernel
 * mode, so a cached result would short-circuit the comparison.
 *
 * Every comparison also checks the core's kernel counters
 * (KernelCounters): under the sparse kernel the wake clauses and the
 * wake-gap bins each account for every core tick, and the dense
 * kernel, which runs none of that machinery, reports zeros.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/core.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "sim/feedback_port.hh"
#include "sim/simulator.hh"
#include "store/result_store.hh"
#include "workload/generator.hh"
#include "workload/workload_set.hh"

namespace loopsim
{
namespace
{

/** RAII kernel-mode selector around a run. */
class ScopedKernelMode
{
  public:
    explicit ScopedKernelMode(KernelMode mode)
        : previous(defaultKernelMode())
    {
        setDefaultKernelMode(mode);
    }
    ~ScopedKernelMode() { setDefaultKernelMode(previous); }
    ScopedKernelMode(const ScopedKernelMode &) = delete;
    ScopedKernelMode &operator=(const ScopedKernelMode &) = delete;

  private:
    KernelMode previous;
};

RunResult
runWith(KernelMode mode, const RunSpec &spec)
{
    ScopedKernelMode scope(mode);
    return runOnce(spec);
}

/** The "core" row of a tick profile (a failure if there is none). */
ComponentProfile
coreRow(const std::vector<ComponentProfile> &profile)
{
    for (const ComponentProfile &p : profile) {
        if (p.name == "core")
            return p;
    }
    ADD_FAILURE() << "the tick profile has no core row";
    return {};
}

/** The sparse core's counters account for its ticks; the dense
 *  core's are zero. */
void
expectCountersAddUp(const RunResult &dense, const RunResult &sparse)
{
    using K = KernelCounters;
    EXPECT_EQ(coreRow(dense.tickProfile).counters.n, K{}.n);
    const ComponentProfile core = coreRow(sparse.tickProfile);
    const K &c = core.counters;
    ASSERT_GT(core.ticks, 0u);
    EXPECT_EQ(c.sum(K::WakeEvent, K::Gap1), core.ticks);
    EXPECT_EQ(c.sum(K::Gap1, K::IssueCalls), core.ticks);
    EXPECT_EQ(c.n[K::GapNone], c.n[K::WakeNone]);
    EXPECT_GT(c.n[K::IssueCalls], 0u);
    EXPECT_LE(c.n[K::IssueCalls], core.ticks);
    EXPECT_LE(c.n[K::IssueIssued], c.n[K::IssueEvals]);
    EXPECT_LE(c.n[K::IssueBarren], c.n[K::IssueCalls]);
}

/** Assert two runs of the same spec are bit-identical. */
void
expectIdentical(const RunResult &dense, const RunResult &sparse,
                const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_FALSE(dense.failed);
    ASSERT_FALSE(sparse.failed);
    expectCountersAddUp(dense, sparse);
    EXPECT_EQ(dense.cycles, sparse.cycles);
    EXPECT_EQ(dense.retired, sparse.retired);
    EXPECT_EQ(dense.ipc, sparse.ipc);

    ASSERT_EQ(dense.scalars.size(), sparse.scalars.size());
    for (const auto &[name, value] : dense.scalars) {
        auto it = sparse.scalars.find(name);
        ASSERT_NE(it, sparse.scalars.end()) << "missing scalar " << name;
        // Exact equality on purpose: the sparse kernel's span-weighted
        // accounting is only correct if it reproduces the dense sums
        // bit for bit, not merely approximately.
        EXPECT_EQ(value, it->second) << "scalar " << name;
    }

    EXPECT_EQ(dense.operandSourceCounts, sparse.operandSourceCounts);
    EXPECT_EQ(dense.operandSourceFractions,
              sparse.operandSourceFractions);
    EXPECT_EQ(dense.gapCdf, sparse.gapCdf);
}

RunSpec
specFor(const Workload &w)
{
    RunSpec spec;
    spec.workload = w;
    // Enough ops to exercise warmup reset, measurement spans and every
    // recovery loop, while keeping the 13-workload sweep test-sized.
    spec.totalOps = 60000;
    spec.warmupOps = 20000;
    return spec;
}

/** Every figure workload (10 single-thread + 3 SMT pairs), base
 *  machine. */
TEST(KernelDifferential, AllFigureWorkloadsBaseMachine)
{
    for (const Workload &w : figureWorkloads()) {
        RunSpec spec = specFor(w);
        RunResult dense = runWith(KernelMode::Dense, spec);
        RunResult sparse = runWith(KernelMode::Sparse, spec);
        expectIdentical(dense, sparse, figureLabel(w));
    }
}

/** DRA machine: the operand-resolution loop and its recovery paths. */
TEST(KernelDifferential, DraMachine)
{
    for (const char *name : {"swim", "gcc", "go-su2cor"}) {
        RunSpec spec = specFor(resolveWorkload(name));
        spec.overrides.setBool("dra.enable", true);
        RunResult dense = runWith(KernelMode::Dense, spec);
        RunResult sparse = runWith(KernelMode::Sparse, spec);
        expectIdentical(dense, sparse, std::string("dra:") + name);
    }
}

/** The DRA ablation settings: LRU refreshes on reads, timeouts expire
 *  entries, and a 4-entry CRC evicts often. */
TEST(KernelDifferential, DraCrcAblations)
{
    struct Cell
    {
        const char *workload;
        const char *key;
        const char *value;
    };
    for (const Cell &cell : {Cell{"gcc", "dra.crc.repl", "lru"},
                             Cell{"swim", "dra.crc.timeout", "16"},
                             Cell{"go-su2cor", "dra.crc.entries", "4"}}) {
        RunSpec spec = specFor(resolveWorkload(cell.workload));
        spec.overrides.setBool("dra.enable", true);
        spec.overrides.set(cell.key, cell.value);
        RunResult dense = runWith(KernelMode::Dense, spec);
        RunResult sparse = runWith(KernelMode::Sparse, spec);
        expectIdentical(dense, sparse,
                        std::string(cell.key) + "=" + cell.value + ":" +
                            cell.workload);
    }
}

/** Long pipelines stretch the loops the wheel must sleep across. */
TEST(KernelDifferential, LongPipeline)
{
    RunSpec spec = specFor(resolveWorkload("m88ksim"));
    setPipeline(spec.overrides, 10, 8);
    RunResult dense = runWith(KernelMode::Dense, spec);
    RunResult sparse = runWith(KernelMode::Sparse, spec);
    expectIdentical(dense, sparse, "pipe 10_8");
}

/** The loop-discipline audit must stay clean under the wheel: a
 *  skipped cycle that a feedback signal needed would surface here as
 *  a DisciplineViolation (and as a result mismatch). */
TEST(KernelDifferential, AuditClean)
{
    audit::Scoped audit_on(true);
    for (const char *name : {"compress", "apsi-swim"}) {
        RunSpec spec = specFor(resolveWorkload(name));
        RunResult dense = runWith(KernelMode::Dense, spec);
        RunResult sparse = runWith(KernelMode::Sparse, spec);
        expectIdentical(dense, sparse, std::string("audit:") + name);
    }
}

/** Fault injection perturbs exactly the recovery paths whose wake
 *  cycles the sparse kernel must predict. All draws are per-site (not
 *  per-cycle), so the streams are kernel-independent by design. */
TEST(KernelDifferential, FaultInjection)
{
    RunSpec spec = specFor(resolveWorkload("go"));
    spec.overrides.setBool("integrity.fault.enable", true);
    spec.overrides.setUint("integrity.fault.seed", 7);
    spec.overrides.setDouble("integrity.fault.wakeup_delay", 0.01);
    spec.overrides.setDouble("integrity.fault.load_delay", 0.01);
    spec.overrides.setDouble("integrity.fault.branch_corrupt", 0.005);
    spec.overrides.setDouble("integrity.fault.port_stall", 0.01);
    RunResult dense = runWith(KernelMode::Dense, spec);
    RunResult sparse = runWith(KernelMode::Sparse, spec);
    expectIdentical(dense, sparse, "faulted go");
}

/** Stress the incremental ready tracking's hardest mutation paths:
 *  kill-all-in-shadow load recovery makes every miss a reissue storm
 *  (victims revert to InIq through the readyRecheck path), a tiny
 *  memDep clear interval flips store-wait bits back and forth under
 *  the wheel, and a small IQ keeps the confirm/free interleaving
 *  under constant occupancy pressure. Any timer armed a cycle late,
 *  or a recheck skipped after a kill, diverges here. */
TEST(KernelDifferential, ReadyTrackingStress)
{
    for (const char *recovery : {"reissue", "refetch"}) {
        RunSpec spec = specFor(resolveWorkload("swim"));
        spec.overrides.set("core.load_recovery", recovery);
        spec.overrides.setBool("core.kill_all_in_shadow", true);
        spec.overrides.setBool("core.memdep.enable", true);
        spec.overrides.setUint("core.memdep.clear", 512);
        spec.overrides.setUint("core.memdep.entries", 64);
        spec.overrides.setUint("core.iq.entries", 16);
        RunResult dense = runWith(KernelMode::Dense, spec);
        RunResult sparse = runWith(KernelMode::Sparse, spec);
        expectIdentical(dense, sparse,
                        std::string("stress:") + recovery);
    }

    // The same storm with recovery kills *and* fault-injected wakeup
    // and port perturbation on an SMT pair: two threads sharing the
    // IQ maximises cross-thread confirm/free interleavings.
    RunSpec spec = specFor(resolveWorkload("go-su2cor"));
    spec.overrides.setBool("core.kill_all_in_shadow", true);
    spec.overrides.setBool("core.memdep.enable", true);
    spec.overrides.setUint("core.memdep.clear", 1024);
    spec.overrides.setBool("integrity.fault.enable", true);
    spec.overrides.setUint("integrity.fault.seed", 11);
    spec.overrides.setDouble("integrity.fault.wakeup_delay", 0.02);
    spec.overrides.setDouble("integrity.fault.port_stall", 0.02);
    RunResult dense = runWith(KernelMode::Dense, spec);
    RunResult sparse = runWith(KernelMode::Sparse, spec);
    expectIdentical(dense, sparse, "stress:smt-faulted");
}

/** The counters are a pure function of the run: identical on a
 *  repeat, and a campaign's merged profile carries the same counts at
 *  jobs 1 and jobs 4. */
TEST(KernelCounters, IdenticalAcrossRepeatsAndJobs)
{
    ScopedKernelMode scope(KernelMode::Sparse);
    const RunSpec spec = specFor(resolveWorkload("swim"));
    EXPECT_EQ(coreRow(runOnce(spec).tickProfile).counters.n,
              coreRow(runOnce(spec).tickProfile).counters.n);

    CampaignPlan plan;
    for (const char *name : {"gcc", "swim", "go", "apsi", "m88-comp"}) {
        RunSpec cell = specFor(resolveWorkload(name));
        cell.totalOps = 20000;
        plan.add(cell, name);
    }
    auto merged = [&plan](unsigned jobs) {
        store::resetProcessStore(); // every cell simulates
        runCampaign(plan, {}, jobs);
        const CampaignTelemetry t = lastCampaignTelemetry();
        EXPECT_EQ(t.simulated, plan.size());
        return t.tickProfile;
    };
    const std::vector<ComponentProfile> one = merged(1);
    const std::vector<ComponentProfile> four = merged(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        SCOPED_TRACE(one[i].name);
        EXPECT_EQ(one[i].name, four[i].name);
        EXPECT_EQ(one[i].ticks, four[i].ticks);
        EXPECT_EQ(one[i].scanTicks, four[i].scanTicks);
        EXPECT_EQ(one[i].counters.n, four[i].counters.n);
    }
    const ComponentProfile core = coreRow(four);
    EXPECT_EQ(core.counters.sum(KernelCounters::WakeEvent,
                                KernelCounters::Gap1),
              core.ticks);
    store::resetProcessStore();
}

/** A gcc run's whole event stream under @p mode; its loop trace, as
 *  takeLoopTrace() drains it, lands in @p loops. */
std::vector<trace::Event>
recordedStream(KernelMode mode, const Config &cfg,
               std::vector<trace::LoopEvent> &loops)
{
    SyntheticTraceGenerator gen(resolveWorkload("gcc").threads.at(0), 0,
                                8000);
    Core core(cfg, {&gen});
    const std::vector<trace::Event> &events = core.recordEvents();
    Simulator sim;
    sim.setKernelMode(mode);
    sim.add(&core);
    sim.run(10000000);
    EXPECT_TRUE(core.done());
    std::vector<trace::Event> stream = events;
    loops = core.takeLoopTrace();
    return stream;
}

/** The event stream is a function of the run, not of the kernel, and
 *  its Loop kind is exactly the loop trace. */
TEST(KernelDifferential, EventStreamIdenticalAndCarriesTheLoopTrace)
{
    for (bool dra : {false, true}) {
        SCOPED_TRACE(dra ? "dra" : "base");
        Config cfg;
        cfg.setBool("dra.enable", dra);
        std::vector<trace::LoopEvent> dense_loops;
        std::vector<trace::LoopEvent> sparse_loops;
        const std::vector<trace::Event> dense =
            recordedStream(KernelMode::Dense, cfg, dense_loops);
        const std::vector<trace::Event> sparse =
            recordedStream(KernelMode::Sparse, cfg, sparse_loops);
        ASSERT_EQ(dense.size(), sparse.size());
        const auto diverge =
            std::mismatch(dense.begin(), dense.end(), sparse.begin());
        EXPECT_TRUE(diverge.first == dense.end())
            << "streams diverge at event " << diverge.first - dense.begin()
            << ": " << trace::eventLine(*diverge.first) << "vs "
            << trace::eventLine(*diverge.second);

        std::vector<trace::LoopEvent> in_stream;
        for (const trace::Event &ev : dense) {
            if (ev.kind == trace::EventKind::Loop)
                in_stream.push_back(
                    {static_cast<trace::LoopEventType>(ev.what), ev.tid,
                     ev.a, ev.b, ev.cycle, ev.id});
        }
        EXPECT_FALSE(in_stream.empty());
        EXPECT_TRUE(in_stream == dense_loops);
        EXPECT_TRUE(sparse_loops == dense_loops);
    }
}

/** Per-Simulator override beats the process default. */
TEST(KernelDifferential, PerInstanceModeOverride)
{
    Simulator sim;
    EXPECT_EQ(sim.kernelMode(), defaultKernelMode());
    sim.setKernelMode(KernelMode::Dense);
    EXPECT_EQ(sim.kernelMode(), KernelMode::Dense);
    sim.setKernelMode(KernelMode::Sparse);
    EXPECT_EQ(sim.kernelMode(), KernelMode::Sparse);
}

} // anonymous namespace
} // namespace loopsim
