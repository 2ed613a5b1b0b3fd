#include "traced.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include "core/core.hh"
#include "core/machine_config.hh"
#include "harness/supervisor.hh"
#include "integrity/sim_error.hh"
#include "integrity/watchdog.hh"
#include "sim/simulator.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "workload/generator.hh"

namespace loopbench
{

using namespace loopsim;

std::int32_t
SpanLog::open(const char *name, std::int32_t parent)
{
    const double t = now();
    recorded.push_back(Span{name, parent, t, t});
    return static_cast<std::int32_t>(recorded.size() - 1);
}

void
SpanLog::close(std::int32_t id)
{
    recorded[static_cast<std::size_t>(id)].t1 = now();
}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace
{

/** The machine runOnce() builds for one cell. */
struct Machine
{
    std::vector<std::unique_ptr<SyntheticTraceGenerator>> gens;
    std::unique_ptr<Core> core;
    Simulator sim;
    std::unique_ptr<InvariantWatchdog> watchdog;
};

/** Per-thread op budgets, split as runOnce() splits them. */
std::vector<std::uint64_t>
threadOps(const RunSpec &spec)
{
    const std::size_t n = spec.workload.threads.size();
    const std::uint64_t total = spec.totalOps + spec.warmupOps;
    std::vector<std::uint64_t> ops(n, total / n);
    for (std::size_t t = 0; t < total % n; ++t)
        ++ops[t];
    return ops;
}

/**
 * runOnce() for one cell, with the machine build, warmup, measurement,
 * result extraction and teardown each in its own span. The extraction
 * copies runOnce()'s field for field, so figures assemble identically.
 */
RunResult
simulateCell(const RunSpec &spec, const Config &cfg, SpanLog &log,
             std::int32_t cell, KernelCounts &kernel)
{
    auto m = std::make_unique<Machine>();
    {
        Scoped s(log, "core.setup", cell);
        const std::vector<std::uint64_t> ops = threadOps(spec);
        std::vector<TraceSource *> sources;
        for (std::size_t t = 0; t < ops.size(); ++t) {
            m->gens.push_back(std::make_unique<SyntheticTraceGenerator>(
                spec.workload.threads[t], static_cast<ThreadId>(t),
                ops[t]));
            sources.push_back(m->gens.back().get());
        }
        m->core = std::make_unique<Core>(cfg, sources);
        m->sim.add(m->core.get());
        // Exact tick counts with (almost) no timing: only the first
        // wheel iteration is timed.
        m->sim.enableProfiling(true);
        m->sim.setProfilingStride(std::numeric_limits<unsigned>::max());
        if (cfg.getBool("integrity.watchdog.enable", true)) {
            m->watchdog = std::make_unique<InvariantWatchdog>(
                *m->core, WatchdogConfig::fromConfig(cfg));
            m->sim.add(m->watchdog.get());
        }
    }
    Core &core = *m->core;
    Simulator &sim = m->sim;
    {
        Scoped s(log, "sim.warmup", cell);
        while (spec.warmupOps > 0 && core.retiredOps() < spec.warmupOps &&
               !core.done()) {
            sim.run(1024);
            if (sim.now() > spec.maxCycles)
                throw SimError("cycle-limit", "warmup exhausted the budget");
        }
        core.beginMeasurement();
    }
    {
        Scoped s(log, "sim.measure", cell);
        sim.run(spec.maxCycles);
        if (sim.hitCycleLimit())
            throw SimError("cycle-limit", "measure exhausted the budget");
    }
    RunResult res;
    {
        Scoped s(log, "harness.extract", cell);
        res.workloadLabel = figureLabel(spec.workload);
        res.pipeLabel = core.machine().pipeLabel();
        res.cycles = core.cyclesRun();
        res.ipc = core.ipc();
        const auto &src_vec = core.operandSourceStat();
        for (std::size_t i = 0; i < src_vec.size(); ++i) {
            res.operandSourceFractions.push_back(src_vec.fraction(i));
            res.operandSourceCounts.push_back(src_vec.bin(i));
        }
        const auto &gap = core.operandGapStat();
        res.gapCdf.reserve(129);
        for (unsigned c = 0; c <= 128; ++c)
            res.gapCdf.push_back(gap.cdf(static_cast<double>(c)));
        for (const auto &[name, stat] : core.exportedStats())
            res.scalars[name] = stat->value();
        res.retired = static_cast<std::uint64_t>(res.scalar("retired"));
        res.loopEvents = core.takeLoopTrace();
        // Only the exact counts are kept; the result itself carries no
        // profile, as runCampaign()'s does not.
        const ComponentProfile &p = sim.profile().at(0);
        kernel.ticks = p.ticks;
        kernel.scanTicks = p.scanTicks;
        kernel.cycles = sim.now();
    }
    {
        Scoped s(log, "core.teardown", cell);
        m.reset();
    }
    return res;
}

/** A cell that threw: fail-soft, labelled like runCampaign()'s. */
RunResult
failedCell(const RunSpec &spec, const Config &cfg, const char *what)
{
    RunResult res;
    res.failed = true;
    res.failKind = FailKind::Sim;
    res.error = what;
    res.ipc = failPoint(FailKind::Sim);
    res.workloadLabel = figureLabel(spec.workload);
    res.pipeLabel = MachineConfig::fromConfig(cfg).pipeLabel();
    return res;
}

/** runCampaign()'s journal key: a hash over the cells in plan order. */
store::Fingerprint
planFingerprint(const std::vector<store::Fingerprint> &fps)
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

double
since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

} // anonymous namespace

const std::vector<RunResult> &
runTracedCampaign(const CampaignPlan &plan, unsigned jobs, bool isolate,
                  PassTrace &pass)
{
    const RetryPolicy policy;
    SpanLog &main = pass.logs.front();
    CampaignTrace &ct = pass.campaigns.emplace_back();
    const std::size_t n = plan.size();
    ct.results.resize(n);
    Scoped campaign(main, "harness.campaign");

    store::ResultStore *pstore = store::processStore();
    const store::StoreStats before =
        pstore ? pstore->stats() : store::StoreStats{};
    std::vector<store::Fingerprint> fps(n);
    constexpr std::size_t kNotDup = static_cast<std::size_t>(-1);
    std::vector<std::size_t> dupOf(n, kNotDup);
    std::unique_ptr<store::CampaignJournal> journal;
    std::vector<Config> resolved(n);
    {
        Scoped resolve(main, "harness.resolve", campaign.id());
        for (std::size_t i = 0; i < n; ++i) {
            Scoped s(main, "store.fingerprint", resolve.id());
            fps[i] = store::fingerprintRun(plan.at(i).spec, policy);
        }
        if (store::journalConfigured() && n > 0) {
            Scoped s(main, "journal.replay", resolve.id());
            journal = std::make_unique<store::CampaignJournal>(
                store::journalPath(), planFingerprint(fps), n);
            if (!journal->ok())
                journal.reset();
        }
        std::map<store::Fingerprint, std::size_t> firstMiss;
        for (std::size_t i = 0; i < n; ++i) {
            if (journal) {
                const RunResult *replayed = nullptr;
                {
                    Scoped s(main, "journal.lookup", resolve.id());
                    auto it = journal->replayed().find(fps[i]);
                    if (it != journal->replayed().end())
                        replayed = &it->second;
                }
                if (replayed) {
                    Scoped s(main, "store.memo_insert", resolve.id());
                    ct.results[i] = *replayed;
                    store::processMemo().insert(fps[i], *replayed);
                    ++ct.resumed;
                    continue;
                }
            }
            {
                Scoped s(main, "store.memo_lookup", resolve.id());
                if (auto hit = store::processMemo().lookup(fps[i])) {
                    ct.results[i] = std::move(*hit);
                    ++ct.memoHits;
                    continue;
                }
            }
            if (pstore) {
                std::optional<RunResult> hit;
                {
                    Scoped s(main, "store.lookup", resolve.id());
                    hit = pstore->lookup(fps[i]);
                }
                if (hit) {
                    Scoped s(main, "store.memo_insert", resolve.id());
                    store::processMemo().insert(fps[i], *hit);
                    ct.results[i] = std::move(*hit);
                    continue;
                }
            }
            Scoped s(main, "harness.dedup", resolve.id());
            auto [it, fresh] = firstMiss.emplace(fps[i], i);
            if (!fresh) {
                dupOf[i] = it->second;
                ++ct.memoHits;
                continue;
            }
            ct.simulated.push_back(i);
        }
        // The supervisor resolves each isolated cell's configuration
        // itself, before its fork.
        for (std::size_t i : isolate ? std::vector<std::size_t>{}
                                     : ct.simulated) {
            Scoped s(main, "harness.config", resolve.id());
            resolved[i] = effectiveRunConfig(plan.at(i).spec);
        }
    }

    const std::vector<std::size_t> &pending = ct.simulated;
    ct.draCell.resize(pending.size());
    ct.kernel.resize(pending.size());
    for (std::size_t k = 0; k < pending.size(); ++k)
        ct.draCell[k] = resolved[pending[k]].getBool("dra.enable", false);
    std::vector<SupervisedOutcome> outcomes(isolate ? pending.size() : 0);

    auto executeOne = [&](std::size_t k, SpanLog &log) {
        const std::size_t i = pending[k];
        const RunSpec &spec = plan.at(i).spec;
        Scoped cell(log, "harness.cell");
        if (isolate) {
            Scoped s(log, "supervisor.run", cell.id());
            try {
                outcomes[k] =
                    runCellSupervised(spec, policy, plan.at(i).label);
            } catch (const std::exception &err) {
                outcomes[k].result = failedCell(
                    spec, effectiveRunConfig(spec), err.what());
            }
            ct.results[i] = outcomes[k].result;
        } else {
            try {
                ct.results[i] =
                    simulateCell(spec, resolved[i], log, cell.id(),
                                 ct.kernel[k]);
            } catch (const std::exception &err) {
                ct.results[i] = failedCell(spec, resolved[i], err.what());
            }
        }
        if (journal) {
            Scoped s(log, "journal.append", cell.id());
            journal->append(fps[i], ct.results[i]);
        }
    };

    {
        Scoped pool(main, "harness.pool", campaign.id());
        const unsigned workers = static_cast<unsigned>(
            std::min<std::size_t>(std::max(jobs, 1u), pending.size()));
        ct.workers.resize(workers);
        std::vector<SpanLog *> logs;
        for (unsigned t = 0; t < workers; ++t)
            logs.push_back(&pass.logs.emplace_back(pass.epoch));
        std::atomic<std::size_t> cursor{0};
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < workers; ++t) {
            threads.emplace_back([&, t] {
                WorkerTime &w = ct.workers[t];
                const Clock::time_point born = Clock::now();
                for (;;) {
                    const Clock::time_point c0 = Clock::now();
                    const std::size_t k =
                        cursor.fetch_add(1, std::memory_order_relaxed);
                    const Clock::time_point c1 = Clock::now();
                    w.claimWait += std::chrono::duration<double>(c1 - c0)
                                       .count();
                    if (k >= pending.size())
                        break;
                    executeOne(k, *logs[t]);
                    w.busy += since(c1);
                }
                w.idle = since(born) - w.busy - w.claimWait;
            });
        }
    } // jthreads join here

    {
        Scoped publish(main, "harness.publish", campaign.id());
        for (std::size_t i : pending) {
            {
                Scoped s(main, "store.memo_insert", publish.id());
                store::processMemo().insert(fps[i], ct.results[i]);
            }
            if (pstore && !ct.results[i].failed) {
                Scoped s(main, "store.insert", publish.id());
                pstore->insert(fps[i], ct.results[i]);
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (dupOf[i] == kNotDup)
                continue;
            Scoped s(main, "store.memo_lookup", publish.id());
            if (auto hit = store::processMemo().lookup(fps[i]))
                ct.results[i] = std::move(*hit);
            else
                ct.results[i] = ct.results[dupOf[i]];
        }
    }

    for (const SupervisedOutcome &so : outcomes) {
        ++ct.isolatedRuns;
        ct.spawnRetries += so.attempts - 1;
    }
    ct.journalAppends = journal ? pending.size() : 0;
    if (pstore)
        ct.store = storeDelta(pstore->stats(), before);
    return ct.results;
}

double
timeGenerators(const PassTrace &pass,
               const std::vector<const CampaignPlan *> &plans,
               std::uint64_t &ops)
{
    ops = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t c = 0; c < pass.campaigns.size(); ++c) {
        for (std::size_t i : pass.campaigns[c].simulated) {
            const RunSpec &spec = plans[c]->at(i).spec;
            const std::vector<std::uint64_t> per = threadOps(spec);
            for (std::size_t t = 0; t < per.size(); ++t) {
                SyntheticTraceGenerator gen(spec.workload.threads[t],
                                            static_cast<ThreadId>(t),
                                            per[t]);
                MicroOp op;
                while (gen.next(op))
                    ++ops;
            }
        }
    }
    return since(t0);
}

double
supervisorOverheadMs(const CampaignPlan &plan, std::size_t cells)
{
    const RetryPolicy policy;
    std::vector<double> extra;
    cells = std::min(cells, plan.size());
    for (std::size_t j = 0; j < cells; ++j) {
        const PlannedRun &run = plan.at(j * plan.size() / cells);
        const Clock::time_point t0 = Clock::now();
        const RunResult direct = runOnceResilient(run.spec, policy);
        const double inProcess = since(t0);
        const Clock::time_point t1 = Clock::now();
        const SupervisedOutcome forked =
            runCellSupervised(run.spec, policy, run.label);
        const double supervised = since(t1);
        if (direct.failed || forked.result.failed ||
            direct.cycles != forked.result.cycles)
            return std::numeric_limits<double>::quiet_NaN();
        extra.push_back(1e3 * (supervised - inProcess));
    }
    std::sort(extra.begin(), extra.end());
    return extra.empty() ? 0.0 : extra[extra.size() / 2];
}

bool
journalProbe(const CampaignPlan &plan,
             const std::vector<RunResult> &results, const std::string &dir,
             PassTrace &pass)
{
    const RetryPolicy policy;
    SpanLog &main = pass.logs.front();
    std::vector<store::Fingerprint> fps;
    for (const PlannedRun &run : plan.runs())
        fps.push_back(store::fingerprintRun(run.spec, policy));
    const store::Fingerprint planFp = planFingerprint(fps);
    {
        store::CampaignJournal journal(dir, planFp, fps.size());
        if (!journal.ok())
            return false;
        for (std::size_t i = 0; i < fps.size(); ++i) {
            Scoped s(main, "journal.append");
            journal.append(fps[i], results[i]);
        }
    }
    Scoped s(main, "journal.replay");
    const store::CampaignJournal replay(dir, planFp, fps.size());
    return replay.replayed().size() == fps.size();
}

namespace
{

/** Nearest-rank percentile of @p v (0 when empty). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // anonymous namespace

std::map<std::string, double>
summarizePass(const PassTrace &pass, std::vector<Reconciliation> &rec)
{
    // Span durations by name, and each parent's covered time.
    std::map<std::string, std::vector<double>> dur;
    std::map<std::string, double> parentTotal;
    std::map<std::string, double> parentCovered;
    static const char *const parents[] = {"harness.cell", "harness.resolve",
                                          "harness.publish"};
    double wall = 0.0;
    for (const SpanLog &log : pass.logs) {
        const std::vector<Span> &spans = log.spans();
        std::vector<double> covered(spans.size(), 0.0);
        for (const Span &s : spans) {
            dur[s.name].push_back(s.t1 - s.t0);
            if (s.parent >= 0)
                covered[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (std::string(spans[i].name) == "harness.campaign")
                wall += spans[i].t1 - spans[i].t0;
            for (const char *p : parents) {
                if (std::string(spans[i].name) == p) {
                    parentTotal[p] += spans[i].t1 - spans[i].t0;
                    parentCovered[p] += covered[i];
                }
            }
        }
    }
    auto total = [&](const char *name) {
        double sum = 0.0;
        for (double d : dur[name])
            sum += d;
        return sum;
    };

    std::map<std::string, double> m;
    double parentSum = 0.0;
    double unattributed = 0.0;
    for (const char *p : parents) {
        const double gap = parentTotal[p] - parentCovered[p];
        parentSum += parentTotal[p];
        unattributed += gap;
        rec.push_back(Reconciliation{p, parentTotal[p], gap});
    }
    m["trace.unattributed_frac"] = ratio(unattributed, parentSum);
    m["trace.wall_s"] = wall;

    m["harness.cell_s_p50"] = percentile(dur["harness.cell"], 0.5);
    m["harness.cell_s_p80"] = percentile(dur["harness.cell"], 0.8);
    m["harness.resolve_s"] = total("harness.resolve");
    double busy = 0.0, claim = 0.0, idle = 0.0;
    std::size_t isolated = 0, retries = 0, appends = 0, memoHits = 0,
                resumed = 0;
    store::StoreStats st;
    for (const CampaignTrace &ct : pass.campaigns) {
        for (const WorkerTime &w : ct.workers) {
            busy += w.busy;
            claim += w.claimWait;
            idle += w.idle;
        }
        isolated += ct.isolatedRuns;
        retries += ct.spawnRetries;
        appends += ct.journalAppends;
        memoHits += ct.memoHits;
        resumed += ct.resumed;
        st.accumulate(ct.store);
    }
    m["harness.worker_busy_frac"] = ratio(busy, busy + claim + idle);
    m["harness.worker_idle_s"] = idle;
    m["harness.claim_wait_s"] = claim;

    m["sim.warmup_s"] = total("sim.warmup");
    m["sim.measure_s"] = total("sim.measure");
    m["core.setup_s"] = total("core.setup") + total("core.teardown");

    // Model counts: measured-phase scalars summed over the cells that
    // simulated in-process, plus exact kernel tick counts.
    std::map<std::string, double> sum;
    double ticks = 0.0, scanTicks = 0.0, allCycles = 0.0;
    double draSources[6] = {0, 0, 0, 0, 0, 0};
    for (const CampaignTrace &ct : pass.campaigns) {
        for (std::size_t k = 0; k < ct.simulated.size(); ++k) {
            if (ct.isolatedRuns > 0)
                break;
            const RunResult &r = ct.results[ct.simulated[k]];
            for (const auto &[name, v] : r.scalars)
                sum[name] += v;
            ticks += static_cast<double>(ct.kernel[k].ticks);
            scanTicks += static_cast<double>(ct.kernel[k].scanTicks);
            allCycles += static_cast<double>(ct.kernel[k].cycles);
            if (ct.draCell[k]) {
                for (std::size_t i = 0;
                     i < 6 && i < r.operandSourceCounts.size(); ++i)
                    draSources[i] += r.operandSourceCounts[i];
            }
        }
    }
    m["sim.ticks"] = ticks;
    m["sim.scan_ticks"] = scanTicks;
    m["sim.ticks_per_cycle"] = ratio(ticks, allCycles);
    m["core.cycles"] = sum["cycles"];
    m["core.ipc"] = ratio(sum["retired"], sum["cycles"]);
    m["core.issued_per_retired"] = ratio(sum["issued"], sum["retired"]);
    m["core.reissued"] = sum["reissued"];
    m["core.squashed"] = sum["squashed"];
    m["core.wrong_path_frac"] = ratio(
        sum["wrongPathFetched"], sum["wrongPathFetched"] + sum["fetched"]);
    m["core.load_killed_ops"] = sum["loadKilledOps"];
    m["core.branch_loop_open_frac"] =
        ratio(sum["branchLoopOpenCycles"], sum["cycles"]);
    m["core.load_loop_open_frac"] =
        ratio(sum["loadLoopOpenCycles"], sum["cycles"]);
    m["core.operand_loop_open_frac"] =
        ratio(sum["operandLoopOpenCycles"], sum["cycles"]);
    m["core.recovery_stall_cycles"] = sum["recoveryStallCycles"];
    m["mem.load_miss_events"] = sum["loadMissEvents"];
    m["mem.tlb_traps"] = sum["tlbTraps"];
    m["mem.order_traps"] = sum["memOrderTraps"];
    m["dra.operand_miss_events"] = sum["operandMissEvents"];
    double reads = 0.0;
    for (double c : draSources)
        reads += c;
    // Source order: preread, forward, crc, regfile, payload, miss.
    m["dra.preread_frac"] = ratio(draSources[0], reads);
    m["dra.fwd_frac"] = ratio(draSources[1], reads);
    m["dra.crc_frac"] = ratio(draSources[2], reads);
    m["dra.miss_frac"] = ratio(draSources[5], reads);

    m["store.fingerprint_us_p50"] =
        1e6 * percentile(dur["store.fingerprint"], 0.5);
    m["store.lookup_us_p50"] = 1e6 * percentile(dur["store.lookup"], 0.5);
    m["store.insert_us_p50"] = 1e6 * percentile(dur["store.insert"], 0.5);
    m["store.hits"] = static_cast<double>(st.hits);
    m["store.memo_hits"] = static_cast<double>(memoHits);
    m["store.bytes_read"] = static_cast<double>(st.bytesRead);
    m["store.inserts"] = static_cast<double>(st.inserts);
    m["store.bytes_written"] = static_cast<double>(st.bytesWritten);
    m["journal.append_ms_p50"] = 1e3 * percentile(dur["journal.append"], 0.5);
    m["journal.appends"] = static_cast<double>(appends);
    m["journal.replay_s"] = total("journal.replay");
    m["journal.replayed"] = static_cast<double>(resumed);
    m["supervisor.isolated_runs"] = static_cast<double>(isolated);
    m["supervisor.spawn_retries"] = static_cast<double>(retries);
    return m;
}

} // namespace loopbench
