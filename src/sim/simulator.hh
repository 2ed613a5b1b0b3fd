/**
 * @file
 * Event-driven simulation kernel with a dense reference mode.
 *
 * The kernel drives every registered Clocked component, in registration
 * order, until all components report completion or a cycle limit is
 * reached. Components model their own internal pipelining and
 * propagation delays; the kernel guarantees only a global,
 * monotonically increasing cycle count.
 *
 * Two kernels share that contract:
 *
 *  - Sparse (the default): an event wheel. Each component declares,
 *    via nextActivity(), the earliest future cycle at which it has
 *    anything to do; the kernel advances currentCycle directly to the
 *    minimum over all components and ticks every component there.
 *    A component whose state is frozen between wake-ups must account
 *    for the skipped span inside its next tick() (span-weighted
 *    statistics — see DESIGN.md §14), which makes a sparse run
 *    bit-identical to a dense one.
 *  - Dense (setDefaultKernelMode, or the LOOPSIM_DENSE_KERNEL run
 *    option): the original cycle-by-cycle loop, kept as the
 *    differential-testing reference.
 *
 * The kernel cannot see a component cheating its own loop delays.
 * Cross-stage feedback (branch resolution, load hit/miss, DRA operand
 * miss) must travel through sim/feedback_port.hh, whose audit mode
 * turns the paper's no-global-knowledge rule into a checked invariant.
 */

#ifndef LOOPSIM_SIM_SIMULATOR_HH
#define LOOPSIM_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

/** Kernel flavour: the sparse event wheel or the dense reference. */
enum class KernelMode : std::uint8_t
{
    Sparse, ///< event-wheel kernel (production default)
    Dense,  ///< cycle-by-cycle reference kernel
};

/**
 * What a component's sparse-kernel machinery did (DESIGN.md §11):
 * exact counts, so identical across repeats and --jobs counts, and
 * zero under the dense kernel. wake.* is the clause that set each
 * tick's next wake cycle and gap.* that cycle's distance (one of each
 * per tick; "none": nothing self-scheduled); issue.* counts the
 * incremental issue pass, where a barren pass freed, drained, held
 * and issued nothing.
 */
struct KernelCounters
{
    enum Index : unsigned
    {
        WakeEvent, WakeIq, WakeRetire, WakeInsert, WakeRename,
        WakeFetch, WakeNone,
        Gap1, Gap2, Gap4, Gap8, Gap16, Gap32, Gap64, Gap128, GapNone,
        IssueCalls, IssueEvals, IssueIssued, IssueHeldLoads,
        IssueConfirmPops, IssueWakePops, IssueBarren,
        kCount
    };
    /** JSON keys, by Index. */
    static constexpr const char *kNames[kCount] = {
        "wake.event", "wake.iq", "wake.retire", "wake.insert",
        "wake.rename", "wake.fetch", "wake.none",
        "gap.1", "gap.2-3", "gap.4-7", "gap.8-15", "gap.16-31",
        "gap.32-63", "gap.64-127", "gap.128+", "gap.none",
        "issue.calls", "issue.evals", "issue.issued", "issue.held_loads",
        "issue.confirm_pops", "issue.wake_pops", "issue.barren",
    };

    std::array<std::uint64_t, kCount> n{};

    KernelCounters &
    operator+=(const KernelCounters &other)
    {
        for (unsigned i = 0; i < kCount; ++i)
            n[i] += other.n[i];
        return *this;
    }

    /** Sum of the counters in [first, last). */
    std::uint64_t
    sum(Index first, Index last) const
    {
        std::uint64_t total = 0;
        for (unsigned i = first; i < last; ++i)
            total += n[i];
        return total;
    }
};

/** Anything driven by the global clock. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one cycle; @p now is the cycle being executed. */
    virtual void tick(Cycle now) = 0;

    /** True once this component has no further work. */
    virtual bool done() const = 0;

    /**
     * Sparse-kernel contract: the earliest cycle >= @p now at which
     * this component needs to tick. Returning @p now asks to be ticked
     * every cycle (the dense-compatible default, correct for any
     * component). Returning invalidCycle means "nothing self-scheduled:
     * wake me whenever anything else ticks" — the kernel still ticks
     * every component at every wheel cycle, so a component may always
     * react to state other components changed.
     *
     * The contract is conservative-complete: waking earlier than
     * necessary is always safe (a tick at any cycle with no work must
     * be a no-op up to span accounting); waking later than the first
     * cycle at which the component would have acted is a correctness
     * bug the dense differential test catches.
     */
    virtual Cycle nextActivity(Cycle now) const { return now; }

    /**
     * Kernel-mode hint, delivered by Simulator::run() before the first
     * tick of each run. Components that carry sparse-only machinery on
     * their tick path (wake computation, scan gates) may switch it off
     * under the dense reference kernel so the baseline stays pure.
     * Default: ignore the hint.
     */
    virtual void prepareKernel(KernelMode mode) { (void)mode; }

    /**
     * Number of ticks so far in which this component ran a full
     * (occupancy-proportional) state scan instead of incremental
     * bookkeeping. The kernel publishes it per component in the tick
     * profile, where scanTicks/ticks is the scan fraction — the
     * "how often does sparse degenerate to dense work" metric that
     * DESIGN.md §14 tracks. Components without such a scan keep the
     * default of zero.
     */
    virtual std::uint64_t fullScanTicks() const { return 0; }

    /** Wake-reason and issue-pass counters, published per component
     *  in the tick profile like fullScanTicks(). Components without a
     *  sparse wake computation keep the default of all zeros. */
    virtual KernelCounters kernelCounters() const { return {}; }

    /** Human-readable identity for error messages. */
    virtual std::string name() const { return "clocked"; }
};

/** The process-wide default mode new Simulators start in
 *  (RunOptions::denseKernel, base/options.hh). */
KernelMode defaultKernelMode();

/** Override the process-wide default (tests, bench --dense-kernel). */
void setDefaultKernelMode(KernelMode mode);

/**
 * Kernel self-profiling result: where the host's time went for one
 * registered component. The seconds are wall clock — they describe
 * the simulator, never the simulated machine, and cannot feed back
 * into simulated time; the counts are exact.
 */
struct ComponentProfile
{
    std::string name;         ///< Clocked::name() at profiling time
    std::uint64_t ticks = 0;  ///< total tick() invocations
    /** tick() invocations actually timed: the profiler batch-samples
     *  one wheel iteration per profiling stride. */
    std::uint64_t measuredTicks = 0;
    /** This component's share of the host seconds spent inside
     *  Simulator::run(), split by the sampled tick times, so the rows
     *  of one simulator sum to its profiledSeconds(). */
    double seconds = 0.0;
    /** Ticks that ran a full state scan (Clocked::fullScanTicks());
     *  scanTicks/ticks is the component's scan fraction. */
    std::uint64_t scanTicks = 0;
    KernelCounters counters;  ///< Clocked::kernelCounters()
};

/** The global clock driver. */
class Simulator
{
  public:
    Simulator() : mode(defaultKernelMode()) {}

    /** Register a component; the simulator does not take ownership. */
    void add(Clocked *component);

    /**
     * Run until every component is done or @p max_cycles elapse.
     * Throws SimError (kind "invalid-budget") when @p max_cycles is
     * zero: a zero budget would otherwise look like a successful
     * drain (hitCycleLimit() == false with nothing simulated).
     * @return the number of cycles actually simulated.
     */
    Cycle run(Cycle max_cycles);

    /** Current cycle (the next cycle to be executed). */
    Cycle now() const { return currentCycle; }

    /** True iff the last run() ended because of the cycle limit. */
    bool hitCycleLimit() const { return cycleLimited; }

    /** Per-instance kernel selection (defaults to defaultKernelMode()
     *  at construction). */
    void setKernelMode(KernelMode m) { mode = m; }
    KernelMode kernelMode() const { return mode; }

    /**
     * Kernel self-profiling: when enabled, each run() call is timed
     * with the host's monotonic clock, and one wheel iteration per
     * profiling stride times every tick() to sample how that time
     * splits across components. Counts stay exact. runOnce() always
     * enables it; a bare Simulator starts with it off.
     */
    void enableProfiling(bool on);
    bool profilingEnabled() const { return profiling; }

    /** Sampling stride of the batch profiler (>= 1). */
    void setProfilingStride(unsigned stride);

    /** Host seconds spent inside run() while profiling was on. */
    double profiledSeconds() const { return runSeconds; }

    /** Per-component profile: exact counts, and profiledSeconds()
     *  split by each component's share of the sampled tick time. */
    std::vector<ComponentProfile> profile() const;

  private:
    Cycle runDense(Cycle max_cycles);
    Cycle runSparse(Cycle max_cycles);
    void tickAll();
    void tickAllTimed();

    std::vector<Clocked *> components;
    /** done() flags cached after each component's most recent tick, so
     *  the all-done scan never re-queries a component that has not
     *  ticked since the last scan. */
    std::vector<char> doneFlags;
    Cycle currentCycle = 0;
    bool cycleLimited = false;
    KernelMode mode;
    bool profiling = false;
    unsigned profileStride = 32;
    std::uint64_t profileCursor = 0;
    double runSeconds = 0.0;
    std::vector<std::uint64_t> tickCounts;
    std::vector<std::uint64_t> tickMeasured;
    std::vector<double> tickSeconds;
};

} // namespace loopsim

#endif // LOOPSIM_SIM_SIMULATOR_HH
