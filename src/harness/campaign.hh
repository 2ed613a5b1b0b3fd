/**
 * @file
 * Thread-pool campaign executor.
 *
 * A figure or ablation campaign is an embarrassingly-parallel set of
 * independent simulation runs: each runOnce() builds its own Core,
 * Simulator and statistics, so cells share nothing but immutable
 * inputs (workload profiles, config defaults, the installed overlay).
 * The executor takes a declarative CampaignPlan of RunSpecs and runs
 * them on std::jthread workers, or on the caller's thread when one
 * worker suffices; every worker runs one claim / execute / account
 * loop.
 *
 * Determinism contract: results land by *plan index*, never by
 * completion order, and every cell's simulation is a pure function of
 * its RunSpec — so the assembled output of a parallel campaign is
 * byte-identical to a serial one at any job count. Only stderr
 * diagnostics (warn() lines from failed cells) may interleave
 * differently.
 *
 * Failure contract: each cell runs once, through runOnceResilient();
 * a cell that fails — or throws anything at all, including fatal() on
 * a malformed spec — comes back as a failed RunResult instead of
 * tearing down the pool. A campaign always returns one result per
 * planned run.
 *
 * Crash isolation (--isolate / LOOPSIM_ISOLATE): each miss is run in a
 * supervised forked worker (harness/supervisor.hh) instead of on the
 * pool thread, so a segfault, abort, OOM kill or wall-clock deadline
 * overrun (--deadline-ms) loses only that cell — it is respawned after
 * a fixed pause, then degrades to a `crash` / `timeout` figure cell.
 * Healthy results are byte-identical to an in-process run at any job
 * count.
 *
 * Resumable journals (--journal / LOOPSIM_JOURNAL): every finished
 * cell (verdicts included) is appended to a crash-consistent journal
 * keyed by the plan fingerprint (store/journal.hh). Re-running the
 * same plan replays completed cells — poison cells keep their recorded
 * verdict instead of re-crashing a worker — and simulates only what is
 * missing, preserving byte-identical assembled output.
 *
 * Signals: the executor installs no handler. SIGINT and SIGTERM keep
 * their default action, so a campaign stopped by a signal is a crashed
 * one: it loses the cells in flight, forked workers die with it
 * (harness/supervisor.hh), and rerunning the same command with the
 * same journal resumes it.
 */

#ifndef LOOPSIM_HARNESS_CAMPAIGN_HH
#define LOOPSIM_HARNESS_CAMPAIGN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/options.hh"
#include "harness/experiment.hh"
#include "store/result_store.hh"

namespace loopsim
{

/** One cell of a campaign: a run plus its coordinates in the plan. */
struct PlannedRun
{
    RunSpec spec;
    /** Optional diagnostic label ("fig4 swim 7_7"); not used for
     *  result assembly, which is strictly by plan index. */
    std::string label;
};

/** An ordered list of independent runs. */
class CampaignPlan
{
  public:
    /** Append a run; returns its plan index. */
    std::size_t
    add(RunSpec spec, std::string label = "")
    {
        cells.push_back(PlannedRun{std::move(spec), std::move(label)});
        return cells.size() - 1;
    }

    /** Convenience: build the spec from its figure-driver parts. */
    std::size_t
    add(const Workload &workload, const Config &overrides,
        std::uint64_t total_ops, std::string label = "")
    {
        RunSpec spec;
        spec.workload = workload;
        spec.overrides = overrides;
        spec.totalOps = total_ops;
        return add(std::move(spec), std::move(label));
    }

    std::size_t size() const { return cells.size(); }
    bool empty() const { return cells.empty(); }
    const PlannedRun &at(std::size_t i) const { return cells.at(i); }
    const std::vector<PlannedRun> &runs() const { return cells; }

  private:
    std::vector<PlannedRun> cells;
};

/**
 * Per-worker cost breakdown of one campaign (wall clock). The three
 * buckets partition the worker pool's lifetime, from before the first
 * worker starts to the join, so they sum to the same total on every
 * worker: busy (inside a cell's simulation), claimWait (claiming the
 * next cell from the shared cursor — measurable lock/cache contention
 * shows up here), and idle (everything else: thread startup/teardown
 * and the tail wait while the last cells of an uneven plan finish
 * elsewhere). A healthy
 * campaign is busy-dominated on every worker; a flat --jobs curve
 * with high busy everywhere points at in-cell contention instead of
 * pool starvation.
 */
struct WorkerTelemetry
{
    unsigned id = 0;
    /** Cells this worker executed. */
    std::size_t cells = 0;
    double busySeconds = 0.0;
    double claimWaitSeconds = 0.0;
    double idleSeconds = 0.0;
};

/** What one campaign execution cost (wall clock, not simulated). */
struct CampaignTelemetry
{
    unsigned jobs = 1;
    /** Hardware threads reported by the host at campaign time. Jobs
     *  beyond this number timeslice rather than run in parallel, so a
     *  flat jobs→throughput curve with jobs > hostCpus is expected
     *  behaviour, not executor contention. */
    unsigned hostCpus = 0;
    std::size_t runs = 0;
    std::size_t failures = 0;
    /** Cells that actually ran the simulator: runs minus every memo
     *  and store hit. A fully warm rerun reports 0 here. */
    std::size_t simulated = 0;
    /** Cells answered by the in-process memo, including duplicate
     *  plan points deduplicated within this campaign. */
    std::size_t memoHits = 0;
    /** Cells replayed from a resumed campaign journal (recorded
     *  fail/crash/timeout verdicts included). */
    std::size_t resumed = 0;
    /** @name Supervision counters (nonzero only under --isolate) */
    /// @{
    /** Cells that actually ran in forked workers. */
    std::size_t isolatedRuns = 0;
    /** Worker deaths observed (signal, nonzero exit, garbled record). */
    std::size_t crashes = 0;
    /** Wall-clock deadline overruns (worker SIGKILLed and reaped). */
    std::size_t timeouts = 0;
    /** Extra spawn attempts beyond each cell's first. */
    std::size_t spawnRetries = 0;
    /// @}
    /** Persistent-store activity attributable to this campaign
     *  (hits/misses/inserts/CRC rejects/bytes; all zero when no store
     *  directory is configured). */
    store::StoreStats store;
    double wallSeconds = 0.0;
    /** Kernel self-profile of the simulated cells, merged by
     *  component name. Host seconds are summed over all workers, so
     *  they can exceed wallSeconds under --jobs > 1, but never the
     *  workers' summed busy time. */
    std::vector<ComponentProfile> tickProfile;
    /** Per-worker busy/claim-wait/idle breakdown, by worker id (a
     *  sole worker on the caller's thread is worker 0). */
    std::vector<WorkerTelemetry> workers;

    double
    runsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(runs) / wallSeconds
                   : 0.0;
    }

    /** Accumulate another campaign's cost (jobs: keep the max). */
    void accumulate(const CampaignTelemetry &other);
};

/** Set the process-wide worker count (RunOptions::jobs); 0 means the
 *  host width. Call between campaigns. */
void setCampaignJobs(unsigned jobs);

/** The worker count for the next campaign: RunOptions::jobs
 *  (base/options.hh), or hostCpus() when that is 0. */
unsigned campaignJobs();

/**
 * Execute every cell of @p plan and return one RunResult per cell, in
 * plan order. @p jobs 0 means campaignJobs(); the pool never spawns
 * more workers than cells. @p policy is empty (see RetryPolicy).
 * A process overlay value its key cannot take exits 2 before any
 * cell runs.
 *
 * Lookup-before-simulate: unless loop-event trace collection is on
 * (traces must come from real executions), every cell is first looked
 * up by fingerprint in the in-process memo and then in the persistent
 * store (store/result_store.hh, when a store directory is set). Hits
 * are replayed into the results in plan order — output stays
 * byte-identical to a cold serial sweep at any job count — and only
 * the misses go to the worker pool; fresh results are inserted back. Duplicate plan points within one campaign
 * simulate once.
 */
std::vector<RunResult> runCampaign(const CampaignPlan &plan,
                                   const RetryPolicy &policy = {},
                                   unsigned jobs = 0);

/**
 * Fingerprint of the whole plan as runCampaign() would key its journal
 * right now: a hash over every cell's run fingerprint in plan order
 * (so it reflects the overlays in force), plus the plan size. Exposed
 * for tests and the journal CLI.
 */
store::Fingerprint fingerprintPlan(const CampaignPlan &plan);

/** Telemetry of the most recently completed campaign. */
CampaignTelemetry lastCampaignTelemetry();

/** Cumulative telemetry across every campaign this process ran
 *  (the bench binaries record it into BENCH_campaign.json). */
CampaignTelemetry campaignTotals();

/** Zero the cumulative totals (tests). */
void resetCampaignTotals();

} // namespace loopsim

#endif // LOOPSIM_HARNESS_CAMPAIGN_HH
