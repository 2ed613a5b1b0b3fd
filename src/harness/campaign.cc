#include "harness/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include <map>

#include "base/annotations.hh"
#include "base/logging.hh"
#include "base/options.hh"
#include "harness/supervisor.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "trace/loop_trace.hh"

namespace loopsim
{

namespace
{

/** Merge @p add into @p into by component name (append new names in
 *  first-seen order, so the merged profile is stable). */
void
mergeTickProfile(std::vector<ComponentProfile> &into,
                 const std::vector<ComponentProfile> &add)
{
    for (const ComponentProfile &p : add) {
        bool merged = false;
        for (ComponentProfile &q : into) {
            if (q.name == p.name) {
                q.ticks += p.ticks;
                q.measuredTicks += p.measuredTicks;
                q.seconds += p.seconds;
                q.scanTicks += p.scanTicks;
                q.counters += p.counters;
                merged = true;
                break;
            }
        }
        if (!merged)
            into.push_back(p);
    }
}

std::mutex telemetryMutex;
LOOPSIM_CAMPAIGN_GUARDED("telemetryMutex")
CampaignTelemetry lastTelemetry;
LOOPSIM_CAMPAIGN_GUARDED("telemetryMutex")
CampaignTelemetry totalTelemetry;

/**
 * A mistyped overlay value would fail every cell the same way. Build
 * the plan's first cell once, here on the caller's thread, and exit 2
 * on a config error before any cell runs. Free when the overlay is
 * empty.
 */
void
checkOverlay(const CampaignPlan &plan)
{
    if (processOptions().overlay.empty() || plan.empty())
        return;
    const RunSpec &spec = plan.at(0).spec;
    try {
        const Config cfg = effectiveRunConfig(spec);
        SupervisorPolicy::fromConfig(cfg);
        checkRunConfig(spec, cfg);
    } catch (const FatalError &) {
        std::fprintf(stderr, "loopsim: LOOPSIM_OVERLAY holds a value its "
                             "key cannot take; no cell ran\n");
        std::exit(2); // NOLINT(concurrency-mt-unsafe)
    } catch (const std::exception &) {
        // Not a config error: the cells report it, one result each.
    }
}

/** Thread warn() prefix: "[cell 7: fig4 swim 7_7] ". */
std::string
cellTag(std::size_t index, const PlannedRun &cell)
{
    std::string tag = "[cell " + std::to_string(index);
    if (!cell.label.empty())
        tag += ": " + cell.label;
    else if (!cell.spec.workload.label.empty())
        tag += ": " + cell.spec.workload.label;
    return tag + "] ";
}

/** Atomic supervision counters shared by the pool workers. */
struct SupervisionCounters
{
    std::atomic<std::size_t> isolatedRuns{0};
    std::atomic<std::size_t> crashes{0};
    std::atomic<std::size_t> timeouts{0};
    std::atomic<std::size_t> spawnRetries{0};
};

void
loadSupervisionCounters(CampaignTelemetry &t,
                        const SupervisionCounters &c)
{
    t.isolatedRuns = c.isolatedRuns.load(std::memory_order_relaxed);
    t.crashes = c.crashes.load(std::memory_order_relaxed);
    t.timeouts = c.timeouts.load(std::memory_order_relaxed);
    t.spawnRetries = c.spawnRetries.load(std::memory_order_relaxed);
}

store::Fingerprint
planFingerprintFromCells(const std::vector<store::Fingerprint> &fps)
{
    store::Hasher h;
    h.u64("plan.cells", fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
        h.u64("cell.index", i);
        h.u64("cell.fp.hi", fps[i].hi);
        h.u64("cell.fp.lo", fps[i].lo);
    }
    return h.digest();
}

/** Per-campaign store activity: counters after minus counters before. */
store::StoreStats
storeDelta(const store::StoreStats &after, const store::StoreStats &before)
{
    store::StoreStats d;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.inserts = after.inserts - before.inserts;
    d.crcRejects = after.crcRejects - before.crcRejects;
    d.bytesRead = after.bytesRead - before.bytesRead;
    d.bytesWritten = after.bytesWritten - before.bytesWritten;
    return d;
}

} // anonymous namespace

void
CampaignTelemetry::accumulate(const CampaignTelemetry &other)
{
    jobs = std::max(jobs, other.jobs);
    hostCpus = std::max(hostCpus, other.hostCpus);
    runs += other.runs;
    failures += other.failures;
    simulated += other.simulated;
    memoHits += other.memoHits;
    resumed += other.resumed;
    isolatedRuns += other.isolatedRuns;
    crashes += other.crashes;
    timeouts += other.timeouts;
    spawnRetries += other.spawnRetries;
    store.accumulate(other.store);
    wallSeconds += other.wallSeconds;
    mergeTickProfile(tickProfile, other.tickProfile);
    for (const WorkerTelemetry &w : other.workers) {
        if (w.id >= workers.size())
            workers.resize(w.id + 1);
        WorkerTelemetry &mine = workers[w.id];
        mine.id = w.id;
        mine.cells += w.cells;
        mine.busySeconds += w.busySeconds;
        mine.claimWaitSeconds += w.claimWaitSeconds;
        mine.idleSeconds += w.idleSeconds;
    }
}

void
setCampaignJobs(unsigned jobs)
{
    processOptions().jobs = jobs;
}

unsigned
campaignJobs()
{
    const unsigned jobs = processOptions().jobs;
    return jobs ? jobs : hostCpus();
}

std::vector<RunResult>
runCampaign(const CampaignPlan &plan, const RetryPolicy &policy,
            unsigned jobs)
{
    // Resolve the run options on the caller's thread: a bad LOOPSIM_*
    // value, or an overlay value of the wrong type, exits 2 here,
    // before any worker starts.
    processOptions();
    checkOverlay(plan);
    if (jobs == 0)
        jobs = campaignJobs();
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, std::max<std::size_t>(plan.size(), 1)));

    // Oversubscription is the usual answer to "why doesn't --jobs N
    // scale": workers beyond the hardware thread count timeslice one
    // another, so throughput stays flat while per-worker busy time
    // still sums past wall clock. Say so once, up front, instead of
    // leaving the flat curve to look like executor contention.
    const unsigned host_cpus = std::thread::hardware_concurrency();
    if (host_cpus > 0 && jobs > host_cpus) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            warn("campaign --jobs ", jobs, " exceeds the ", host_cpus,
                 " hardware thread", host_cpus == 1 ? "" : "s",
                 " on this host; extra workers timeslice and add no "
                 "throughput (use --jobs auto for the host width)");
        }
    }

    // loop:exempt(wall-clock telemetry only; never feeds simulated time)
    auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results(plan.size());

    // Lookup-before-simulate. Trace collection needs the loop events
    // only a real execution produces, so while it is on every cell
    // simulates and neither cache is consulted (fresh results are not
    // inserted either: their cached form would be indistinguishable
    // from a non-traced run's, but skipping keeps the traced path
    // completely inert). Otherwise each cell is answered by the
    // in-process memo, then the persistent store, and only the
    // remaining misses reach the worker pool. `pending` holds miss
    // plan indices in plan order; `dupOf[i]` marks a repeat of a
    // missed fingerprint, which waits for its first occurrence
    // instead of simulating again.
    const bool memoize = !trace::collectionActive();
    store::ResultStore *pstore = memoize ? store::processStore() : nullptr;
    const store::StoreStats storeBefore =
        pstore ? pstore->stats() : store::StoreStats{};

    // Isolation and the journal ride the same gate as the caches:
    // trace collection needs real in-process executions, and a traced
    // campaign is a diagnostic run, not one worth resuming.
    const bool isolate = memoize && isolationActive();
    if (!memoize && isolationActive()) {
        warn("trace collection forces in-process execution; "
             "--isolate is bypassed for this campaign");
    }

    constexpr std::size_t kNotDup = static_cast<std::size_t>(-1);
    std::vector<store::Fingerprint> fps(plan.size());
    std::vector<std::size_t> dupOf(plan.size(), kNotDup);
    std::vector<std::size_t> pending;
    std::size_t memoHits = 0;
    std::size_t resumed = 0;

    std::unique_ptr<store::CampaignJournal> journal;
    if (memoize && store::journalConfigured() && !plan.empty()) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            fps[i] = store::fingerprintRun(plan.at(i).spec, policy);
        journal = std::make_unique<store::CampaignJournal>(
            store::journalPath(), planFingerprintFromCells(fps),
            plan.size());
        if (!journal->ok())
            journal.reset();
    }

    if (memoize) {
        // Each fingerprint's first plan index and the tier that
        // answered it. A repeat resolves from its first occurrence and
        // counts as that tier's repeat always has: a replayed cell's
        // repeats as resumed, every other repeat as a memo hit.
        enum class Tier { Journal, Cache, Miss };
        std::map<store::Fingerprint, std::pair<std::size_t, Tier>> first;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (!journal)
                fps[i] = store::fingerprintRun(plan.at(i).spec, policy);
            auto [seen, fresh] =
                first.try_emplace(fps[i], i, Tier::Miss);
            if (!fresh) {
                const auto [j, tier] = seen->second;
                if (tier == Tier::Journal)
                    ++resumed;
                else
                    ++memoHits;
                if (tier == Tier::Miss)
                    dupOf[i] = j;
                else
                    results[i] = results[j];
                continue;
            }
            Tier &tier = seen->second.second;
            // Journal replay outranks the caches: it carries recorded
            // fail/crash/timeout verdicts, and resuming must not send
            // a known-poison cell back to crash another worker. A
            // replayed or store-read result is copied once into its
            // slot and moved into the memo.
            RunResult replayed;
            if (journal && journal->take(fps[i], replayed)) {
                results[i] = replayed;
                store::processMemo().insert(fps[i], std::move(replayed));
                tier = Tier::Journal;
                ++resumed;
                continue;
            }
            if (auto hit = store::processMemo().lookup(fps[i])) {
                results[i] = std::move(*hit);
                tier = Tier::Cache;
                ++memoHits;
                continue;
            }
            if (pstore) {
                if (auto hit = pstore->lookup(fps[i])) {
                    results[i] = *hit;
                    store::processMemo().insert(fps[i], std::move(*hit));
                    tier = Tier::Cache;
                    continue;
                }
            }
            pending.push_back(i);
        }
    } else {
        pending.resize(plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i)
            pending[i] = i;
    }

    // Resolve each miss's effective configuration once, up front, on
    // this thread. Workers then run against the pre-resolved Config
    // through runOnceResilientWith(), so the pool never rebuilds the
    // string-map-heavy figure defaults per cell — the first
    // measurable contention point of the --jobs scaling
    // investigation. This also pins the whole campaign to the
    // overlays in force at plan time, matching what the fingerprints
    // hashed. Isolated cells resolve here too, for the fail-soft
    // result if the supervisor throws; the supervisor itself resolves
    // again just before its fork, the snapshot its child runs against.
    std::vector<Config> resolved(plan.size());
    for (std::size_t i : pending)
        resolved[i] = effectiveRunConfig(plan.at(i).spec);

    SupervisionCounters counters;

    auto executeOne = [&](std::size_t i) {
        const PlannedRun &cell = plan.at(i);
        DiagContext diag(cellTag(i, cell));
        // runOnceResilientWith() fail-softs SimError; anything else a
        // cell throws (fatal() on a malformed spec, ...) fails soft
        // here, so a worker never unwinds out of its thread.
        SupervisedOutcome so;
        try {
            if (isolate)
                so = runCellSupervised(cell.spec, policy, cell.label);
            else
                so.result = runOnceResilientWith(cell.spec, resolved[i]);
        } catch (const std::exception &err) {
            so.result = failedRun(cell.spec, resolved[i], FailKind::Sim,
                                  err.what(), cell.label);
        }
        if (isolate) {
            counters.isolatedRuns.fetch_add(1,
                                            std::memory_order_relaxed);
            counters.crashes.fetch_add(so.crashes,
                                       std::memory_order_relaxed);
            counters.timeouts.fetch_add(so.timeouts,
                                        std::memory_order_relaxed);
            counters.spawnRetries.fetch_add(
                so.attempts - 1, std::memory_order_relaxed);
        }
        results[i] = std::move(so.result);
        // Journal as cells finish, not after the pool drains: a
        // killed campaign then loses at most the entries in flight.
        if (journal)
            journal->append(fps[i], results[i]);
    };

    const unsigned workers_wanted = static_cast<unsigned>(
        std::min<std::size_t>(jobs, std::max<std::size_t>(
                                        pending.size(), 1)));
    // Per-worker busy/claim-wait/idle accounting (wall clock,
    // telemetry only). Each slot is written by exactly one worker.
    // Idle is the rest of the pool's lifetime, from before the first
    // spawn to the join, so it includes thread start-up and the tail
    // a worker spends waiting for the last cell to finish elsewhere.
    std::vector<WorkerTelemetry> workerStats(workers_wanted);
    auto seconds = [](std::chrono::steady_clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    // Work-stealing by atomic cursor: each worker claims the next
    // unclaimed pending entry and writes its result slot. Slots are
    // disjoint, so results need no lock; ordering is by plan index
    // regardless of which worker finishes when.
    std::atomic<std::size_t> cursor{0};
    auto work = [&](unsigned t) {
        WorkerTelemetry &w = workerStats[t];
        w.id = t;
        for (;;) {
            // loop:exempt(wall-clock telemetry only)
            const auto claim0 = std::chrono::steady_clock::now();
            const std::size_t k =
                cursor.fetch_add(1, std::memory_order_relaxed);
            // loop:exempt(wall-clock telemetry only)
            const auto claim1 = std::chrono::steady_clock::now();
            w.claimWaitSeconds += seconds(claim1 - claim0);
            if (k >= pending.size())
                break;
            executeOne(pending[k]);
            w.busySeconds += seconds(
                // loop:exempt(wall-clock telemetry only)
                std::chrono::steady_clock::now() - claim1);
            ++w.cells;
        }
    };
    // loop:exempt(wall-clock telemetry only)
    const auto poolStart = std::chrono::steady_clock::now();
    // A sole worker runs on the caller's thread, so a serial or fully
    // warm campaign starts no thread. A pool leaves the caller idle:
    // with the caller forking isolated cells beside its jthreads, about
    // half the ASan runs of an isolated campaign left a child
    // deadlocked on an allocator lock held by another thread at fork
    // time (GCC 12's libasan does not lock its allocator across fork),
    // against a few runs in a hundred with every worker on a jthread.
    if (workers_wanted == 1) {
        work(0);
    } else {
        std::vector<std::jthread> pool;
        pool.reserve(workers_wanted);
        for (unsigned t = 0; t < workers_wanted; ++t)
            pool.emplace_back(work, t);
    } // jthread joins here
    const double poolSeconds =
        // loop:exempt(wall-clock telemetry only)
        seconds(std::chrono::steady_clock::now() - poolStart);
    for (WorkerTelemetry &w : workerStats)
        w.idleSeconds = poolSeconds - w.busySeconds - w.claimWaitSeconds;

    if (memoize) {
        // Publish fresh results: every simulated cell enters the memo
        // (failures included — a wedge is deterministic within this
        // process), but only healthy results are persisted: a crash or
        // timeout verdict can have a host cause that later campaigns
        // must not inherit.
        for (std::size_t i : pending) {
            store::processMemo().insert(fps[i], results[i]);
            if (pstore && !results[i].failed)
                pstore->insert(fps[i], results[i]);
        }
        // Duplicate plan points copy through the memo so they carry
        // exactly what a memo hit would (no tick profile: the host
        // time was already attributed to the first occurrence).
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (dupOf[i] == kNotDup)
                continue;
            if (auto hit = store::processMemo().lookup(fps[i]))
                results[i] = std::move(*hit);
            else
                results[i] = results[dupOf[i]];
        }
    }

    CampaignTelemetry t;
    t.jobs = jobs;
    t.hostCpus = host_cpus;
    t.runs = plan.size();
    t.simulated = pending.size();
    t.memoHits = memoHits;
    t.resumed = resumed;
    loadSupervisionCounters(t, counters);
    t.workers = std::move(workerStats);
    if (pstore)
        t.store = storeDelta(pstore->stats(), storeBefore);
    t.wallSeconds = std::chrono::duration<double>(
                        // loop:exempt(wall-clock telemetry only)
                        std::chrono::steady_clock::now() - start)
                        .count();
    for (const RunResult &r : results) {
        t.failures += r.failed ? 1 : 0;
        mergeTickProfile(t.tickProfile, r.tickProfile);
    }
    {
        std::lock_guard<std::mutex> lock(telemetryMutex);
        totalTelemetry.accumulate(t);
        lastTelemetry = std::move(t);
    }

    // Feed the process-wide trace collector strictly in plan order,
    // from this (single) thread, after the pool has drained: the
    // assembled trace is therefore byte-identical at any worker
    // count, exactly like the figure outputs.
    if (trace::collectionActive()) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            trace::RunTrace rt;
            rt.label = !plan.at(i).label.empty()
                           ? plan.at(i).label
                           : results[i].workloadLabel + " " +
                                 results[i].pipeLabel;
            rt.events = std::move(results[i].loopEvents);
            trace::collectRun(std::move(rt));
        }
    }
    return results;
}

store::Fingerprint
fingerprintPlan(const CampaignPlan &plan)
{
    std::vector<store::Fingerprint> fps;
    fps.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        fps.push_back(store::fingerprintRun(plan.at(i).spec, {}));
    return planFingerprintFromCells(fps);
}

CampaignTelemetry
lastCampaignTelemetry()
{
    std::lock_guard<std::mutex> lock(telemetryMutex);
    return lastTelemetry;
}

CampaignTelemetry
campaignTotals()
{
    std::lock_guard<std::mutex> lock(telemetryMutex);
    return totalTelemetry;
}

void
resetCampaignTotals()
{
    std::lock_guard<std::mutex> lock(telemetryMutex);
    lastTelemetry = CampaignTelemetry{};
    totalTelemetry = CampaignTelemetry{};
}

} // namespace loopsim
