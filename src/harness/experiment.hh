/**
 * @file
 * Experiment runner: builds a core + workload from a specification,
 * runs it to completion, and extracts the measurements the paper's
 * figures are built from.
 */

#ifndef LOOPSIM_HARNESS_EXPERIMENT_HH
#define LOOPSIM_HARNESS_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "trace/loop_trace.hh"
#include "workload/workload_set.hh"

namespace loopsim
{

/** One simulation run. */
struct RunSpec
{
    Workload workload;
    /** Machine/memory/branch configuration overlaid on the defaults. */
    Config overrides;
    /** Measured correct-path micro-ops across all threads. */
    std::uint64_t totalOps = 200000;
    /**
     * Warmup micro-ops (across all threads) run before statistics are
     * reset, mirroring the paper's warmed measurement methodology:
     * caches, predictors and DRA structures keep their state.
     */
    std::uint64_t warmupOps = 60000;
    /** Safety valve against configuration-induced livelock. */
    Cycle maxCycles = 50000000;
};

/**
 * How a fail-soft cell died. `Sim` is the PR-1 state: the simulation
 * itself reported a SimError (wedge, exhausted budget) inside a
 * healthy process. `Crash` and `Timeout` are the process-level states
 * the supervisor (harness/supervisor.hh) adds: the isolated worker
 * process died on a signal (SIGSEGV, abort, OOM kill) or overran its
 * wall-clock deadline. Figures render them as distinct `crash` /
 * `timeout` cells next to the existing `fail`.
 */
enum class FailKind : std::uint8_t
{
    None = 0,    ///< healthy result
    Sim = 1,     ///< in-process SimError ("fail")
    Crash = 2,   ///< worker process died on a signal
    Timeout = 3, ///< worker process overran the wall-clock deadline
};

/** Figure-cell label: "fail" / "crash" / "timeout" ("" for None). */
const char *failKindName(FailKind kind);

/**
 * NaN tagged with a FailKind in its quiet-NaN payload, so fail-soft
 * figure cells keep their verdict through assembly (speedup ratios,
 * fraction columns) without widening every Series with a side channel.
 * The tag survives copies — never arithmetic — which is exactly how
 * assembled figure values treat failed points.
 */
double failPoint(FailKind kind);

/** Recover the tag: None for finite values, Sim for untagged NaNs. */
FailKind pointFailKind(double v);

/** Measurements extracted from a finished run. */
struct RunResult
{
    std::string workloadLabel;
    std::string pipeLabel;
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    double ipc = 0.0;

    /** Fail-soft marker: the run never finished. All measurement
     *  fields are meaningless when set. */
    bool failed = false;
    /** Failure taxonomy (None when !failed). */
    FailKind failKind = FailKind::None;
    /** Why the run failed (empty when !failed). */
    std::string error;

    /** Figure 9: fractions of operand reads by location
     *  (preread, forward, crc, regfile, payload, miss). */
    std::vector<double> operandSourceFractions;
    /** Raw operand-source counts in the same order. */
    std::vector<double> operandSourceCounts;

    /** Figure 6: empirical CDF of the operand-availability gap,
     *  cdf[i] = P(gap <= i cycles), i in [0, 128]. */
    std::vector<double> gapCdf;

    /** The core's exported scalar statistics by unqualified name
     *  (`cycles`, `retired`, ...; Core::exportedStats()). */
    std::map<std::string, double> scalars;

    /**
     * This run's loop-event trace, in simulation order (empty unless
     * trace collection is on — see trace::collectionActive()). The
     * campaign executor moves these into the process-wide collector in
     * plan order, keeping assembled traces deterministic at any
     * --jobs count.
     */
    std::vector<trace::LoopEvent> loopEvents;

    /**
     * Kernel self-profile of a simulated run: per-component tick
     * counts, kernel counters and host seconds (empty on a cached
     * result). The seconds are wall clock, so NOT deterministic;
     * telemetry only.
     */
    std::vector<ComponentProfile> tickProfile;

    double scalar(const std::string &name) const;
};

/**
 * Build the default configuration for figure reproduction: the base
 * machine of §2 with profile-mode branches.
 */
Config defaultFigureConfig();

/**
 * Apply a pipeline configuration in the paper's X_Y notation:
 * DEC-IQ = @p dec_iq, IQ-EX = @p iq_ex. The register file latency is
 * derived as iq_ex - 2 (issue + payload cycles), matching §2.1's
 * decomposition of the base 5-cycle IQ-EX path.
 */
void setPipeline(Config &cfg, unsigned dec_iq, unsigned iq_ex);

/**
 * Apply the DRA transformation of §6 for a given register file
 * latency: the base machine gets IQ-EX = rf + 2; the DRA machine gets
 * IQ-EX = 3 and DEC-IQ = max(5, rf + 2).
 */
void setDraPipeline(Config &cfg, unsigned regfile_latency);
void setBasePipeline(Config &cfg, unsigned regfile_latency);

/**
 * Run one simulation to completion.
 *
 * Throws CycleLimitError when the run exhausts spec.maxCycles and
 * WatchdogError when the integrity watchdog detects a wedge or an
 * invariant violation (see src/integrity/). fatal() is reserved for
 * malformed specifications (empty workload, zero ops).
 *
 * The effective configuration is effectiveRunConfig(@p spec). The
 * process overlay exists so whole figure campaigns can be re-run under
 * fault injection or altered integrity settings without touching
 * driver code.
 *
 * Thread safety: runOnce() is safe to call concurrently — every run
 * builds its own Core, Simulator, watchdog and statistics, and takes a
 * private Config snapshot, so Config's read-tracking never crosses
 * threads.
 * The caller must not mutate @p spec during the call; distinct calls
 * need distinct specs only in the trivial sense that each gets its
 * own copy via the campaign plan or the stack.
 */
RunResult runOnce(const RunSpec &spec);

/**
 * The configuration runOnce() would resolve for @p spec right now, as
 * one flat Config: defaultFigureConfig() < spec.overrides < the
 * process overlay (DESIGN.md §8, "Run options"). The result store
 * fingerprints this (store/fingerprint.hh), so a run's cache key
 * reflects the overlay in force at plan time, not just the spec.
 */
Config effectiveRunConfig(const RunSpec &spec);

/**
 * Replace / clear the process overlay (RunOptions::overlay, which
 * LOOPSIM_OVERLAY fills). Install before launching runs, clear after
 * they drain: runs read it without a lock.
 */
void setRunOverlay(const Config &overlay);
void clearRunOverlay();

/** Empty: a cell runs once (DESIGN.md §8). Kept only because
 *  existing callers still pass one to runCampaign(), runOnceResilient(),
 *  runCellSupervised() and store::fingerprintRun(). */
struct RetryPolicy
{};

/**
 * runOnce() with fail-soft: a SimError comes back as failedRun(). No
 * retry: a run is deterministic, so one could only fail the same way
 * or measure another seed. Other exceptions propagate.
 */
RunResult runOnceResilient(const RunSpec &spec,
                           const RetryPolicy &policy = {});

/**
 * runOnceResilient() against an already-resolved configuration
 * (effectiveRunConfig()), skipping overlay resolution entirely. The
 * campaign executor resolves each cell once on its own thread, and the
 * fork-isolated supervisor resolves before the fork.
 */
RunResult runOnceResilientWith(const RunSpec &spec, const Config &resolved);

/**
 * Build, and discard, what runOnce() builds for @p spec against
 * @p resolved, running nothing: FatalError on a mistyped key. Returns
 * the keys @p resolved sets that neither the build nor an earlier read
 * of @p resolved read, which no run would read either (likely typos).
 */
std::vector<std::string> checkRunConfig(const RunSpec &spec,
                                        const Config &resolved);

/**
 * The one builder of fail-soft results: IPC is failPoint(@p kind), with
 * the labels a finished run would carry. A label that cannot be
 * computed (the spec or @p resolved is the fault) falls back to
 * @p fallback_label or "?".
 */
RunResult failedRun(const RunSpec &spec, const Config &resolved,
                    FailKind kind, const std::string &error,
                    const std::string &fallback_label = {});

/**
 * Relative speedup of @p test over @p baseline (IPC ratio). NaN when
 * either run is a fail-soft failure; fatal() on a healthy baseline
 * that retired nothing.
 */
double speedup(const RunResult &test, const RunResult &baseline);

} // namespace loopsim

#endif // LOOPSIM_HARNESS_EXPERIMENT_HH
