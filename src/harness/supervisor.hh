/**
 * @file
 * Crash-isolated cell execution: forked worker processes, wall-clock
 * deadlines, and respawns.
 *
 * The campaign executor (harness/campaign.hh) normally runs cells on
 * threads inside one process, which means one segfaulting, aborting or
 * livelocked cell takes the whole multi-hour figure campaign with it.
 * Under isolation (--isolate / LOOPSIM_ISOLATE) each cell instead runs
 * in a fork()ed worker: the child executes runOnceResilient() against
 * a pre-resolved configuration, serializes its RunResult over a pipe
 * (the store's record codec, so doubles survive bit-exactly and a
 * truncated write is detected by CRC) and _exit()s. The parent reaps
 * every outcome:
 *
 *  - clean exit + valid record  -> the result, healthy or fail-soft
 *  - death by signal (SIGSEGV, abort, OOM kill), nonzero exit, or a
 *    garbled record             -> FailKind::Crash
 *  - wall-clock deadline overrun (--deadline-ms) -> SIGKILL + reap ->
 *    FailKind::Timeout — a *real-time* watchdog complementing the
 *    PR-1 cycle-budget watchdog, which cannot fire when the process
 *    stops ticking simulated time at all
 *
 * Crashes and timeouts are respawned after a fixed kRespawnPauseMs
 * pause up to integrity.supervisor.attempts, then degrade to a
 * crash/timeout figure cell next to the existing fail state. Only
 * these respawn, since a host cause (OOM kill, fork() EAGAIN, load)
 * can pass; a SimError is a pure function of config and seed, so the
 * child reports it once, as a fail cell (DESIGN.md §13). Results are byte-identical to an in-process
 * run: the child computes exactly what the thread would have, and the
 * record codec round-trips every figure-visible field.
 *
 * Fork-safety: the parent is multi-threaded (campaign workers fork
 * concurrently), so the child must not touch a lock another parent
 * thread held at fork time. The child therefore runs against the
 * configuration resolved *before* the fork (runOnceResilientWith()),
 * and glibc's atfork handlers keep malloc usable. A function-local
 * static's first-use guard is such a lock too, so what both the child
 * and the parent's threads call (figureLabel()) keeps its tables
 * constant-initialized.
 * Loop-event traces only exist in real in-process executions, so the
 * campaign executor bypasses isolation while trace collection is on
 * (the same contract the result store follows); tick profiles are
 * shipped back through the pipe as a wire extension.
 */

#ifndef LOOPSIM_HARNESS_SUPERVISOR_HH
#define LOOPSIM_HARNESS_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "harness/experiment.hh"

namespace loopsim
{

/** Wall-clock pause before each respawn of a crashed or timed-out
 *  worker; a shutdown cuts it short. */
constexpr std::uint64_t kRespawnPauseMs = 100;

/** How the supervisor respawns crashed / timed-out workers. */
struct SupervisorPolicy
{
    /** Total spawn attempts per cell (first try included). */
    unsigned attempts = 2;
    /** Wall-clock deadline per attempt in ms; 0 = none. Always the
     *  process-wide deadlineMs() (--deadline-ms). */
    std::uint64_t deadlineMs = 0;

    /**
     * integrity.supervisor.attempts, so whole campaigns tune respawns
     * through overlays, and the process-wide deadline (deadlineMs()).
     */
    static SupervisorPolicy fromConfig(const Config &cfg);
};

/** What supervising one cell cost, for campaign telemetry. */
struct SupervisedOutcome
{
    RunResult result;
    /** Spawn attempts actually made (1 when the first child lived). */
    unsigned attempts = 1;
    /** Worker deaths observed across attempts (signal/exit/garble). */
    unsigned crashes = 0;
    /** Deadline overruns observed across attempts. */
    unsigned timeouts = 0;
    /** A graceful shutdown interrupted this cell: the in-flight child
     *  was reaped early and result must not be journaled or used. */
    bool interrupted = false;
};

/** @name Process-wide isolation configuration
 * RunOptions::isolate and ::deadlineMs (base/options.hh); a deadline
 * of 0 means none. */
/// @{
bool isolationSupported(); ///< false on platforms without fork()
void setIsolation(bool on);
bool isolationActive();
void setDeadlineMs(std::uint64_t ms);
std::uint64_t deadlineMs();
/// @}

/**
 * Cooperative shutdown: while @p flag (owned by the caller, may be
 * null to detach) reads true, in-flight children are SIGKILLed and
 * reaped, respawn pauses cut short, and outcomes come back with
 * interrupted set. The campaign executor points this at its
 * SIGINT/SIGTERM flag for the duration of a run.
 */
void setSupervisorStopFlag(const std::atomic<bool> *flag);

/**
 * Run one cell in a supervised forked worker. The child runs the cell
 * once, through runOnceResilient(); @p policy is empty (see
 * RetryPolicy). The supervisor's own spawn policy is resolved from the
 * cell's effective config. The result's labels are always filled
 * (from @p fallback_label when the spec itself is unprintable), so
 * crash/timeout cells render like any other fail-soft cell.
 */
SupervisedOutcome runCellSupervised(const RunSpec &spec,
                                    const RetryPolicy &policy,
                                    const std::string &fallback_label);

} // namespace loopsim

#endif // LOOPSIM_HARNESS_SUPERVISOR_HH
