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
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/feedback_port.hh"
#include "sim/simulator.hh"
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

/** Assert two runs of the same spec are bit-identical. */
void
expectIdentical(const RunResult &dense, const RunResult &sparse,
                const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_FALSE(dense.failed);
    ASSERT_FALSE(sparse.failed);
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
