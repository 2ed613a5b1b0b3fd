/**
 * @file
 * Tests for the parallel campaign executor: job-count resolution,
 * byte-identical results at any worker count (including fail-soft
 * footers from a deliberately wedged cell), worker exceptions
 * surfacing as failed cells, the overlay's thread-safety contract,
 * and telemetry accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "store/result_store.hh"

using namespace loopsim;

namespace
{

RunSpec
smallSpec(const std::string &workload, std::uint64_t ops = 4000)
{
    RunSpec spec;
    spec.workload = resolveWorkload(workload);
    spec.totalOps = ops;
    spec.warmupOps = 1000;
    return spec;
}

/** A configuration that wedges the machine: every wakeup dropped,
 *  tight watchdog window — the fail-soft path fires quickly and
 *  deterministically. */
Config
wedgeConfig()
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble("integrity.fault.wakeup_drop", 1.0);
    cfg.setUint("integrity.watchdog.window", 10000);
    return cfg;
}

/** Build the shared 12-cell plan: 3 workloads x 4 configs, one of
 *  which is wedged on purpose. */
CampaignPlan
twelveCellPlan()
{
    std::vector<std::pair<std::string, Config>> configs;
    configs.emplace_back("base", Config{});
    Config deep;
    setPipeline(deep, 7, 7);
    configs.emplace_back("7_7", deep);
    Config dra;
    setDraPipeline(dra, 5);
    configs.emplace_back("dra", dra);
    configs.emplace_back("wedge", wedgeConfig());

    CampaignPlan plan;
    for (const char *w : {"gcc", "swim", "turb3d"}) {
        for (const auto &[label, cfg] : configs) {
            RunSpec spec = smallSpec(w);
            spec.overrides = cfg;
            plan.add(std::move(spec), std::string(w) + "/" + label);
        }
    }
    return plan;
}

/** Assemble the plan's results into a figure exactly the way the
 *  drivers do: rows by workload, columns by config, plan order. */
FigureData
assemble(const CampaignPlan &plan)
{
    FigureData fig;
    fig.title = "campaign determinism probe";
    fig.valueUnit = "IPC";
    for (const char *c : {"base", "7_7", "dra", "wedge"})
        fig.columns.push_back(Series{c, {}});

    std::vector<RunResult> results = runPlan(fig, plan);
    for (std::size_t wi = 0; wi < 3; ++wi) {
        fig.rowLabels.push_back(results[wi * 4].workloadLabel);
        for (std::size_t p = 0; p < 4; ++p) {
            const RunResult &r = results[wi * 4 + p];
            fig.columns[p].values.push_back(
                r.failed ? std::nan("") : r.ipc);
        }
    }
    return fig;
}

std::string
render(const FigureData &fig)
{
    std::ostringstream os;
    printFigure(os, fig);
    printCsv(os, fig);
    return os.str();
}

} // anonymous namespace

TEST(CampaignJobs, ExplicitWinsAndAutoIsPositive)
{
    setCampaignJobs(3);
    EXPECT_EQ(campaignJobs(), 3u);
    setCampaignJobs(0);
    EXPECT_GE(campaignJobs(), 1u);
}

TEST(CampaignJobs, JobsSpecParsesNumbersAndAuto)
{
    bool ok = false;
    EXPECT_EQ(parseJobsSpec("4", ok), 4u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseJobsSpec("auto", ok), hostCpus());
    EXPECT_TRUE(ok);
    EXPECT_GE(hostCpus(), 1u);
    parseJobsSpec("fast", ok);
    EXPECT_FALSE(ok);
    parseJobsSpec("", ok);
    EXPECT_FALSE(ok);
    parseJobsSpec("4x", ok);
    EXPECT_FALSE(ok);
}

TEST(CampaignPlanTest, IndicesAreStable)
{
    CampaignPlan plan;
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.add(smallSpec("gcc"), "a"), 0u);
    EXPECT_EQ(plan.add(smallSpec("swim"), "b"), 1u);
    EXPECT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.at(0).label, "a");
    EXPECT_EQ(plan.at(1).label, "b");
}

TEST(CampaignDeterminism, TwelveCellsIdenticalAtJobs1And8)
{
    CampaignPlan plan = twelveCellPlan();
    ASSERT_EQ(plan.size(), 12u);

    setCampaignJobs(1);
    FigureData serial = assemble(plan);
    setCampaignJobs(8);
    FigureData parallel = assemble(plan);
    setCampaignJobs(0);

    // The wedged column must have failed — the footer is part of the
    // determinism contract, not an empty-vs-empty comparison.
    EXPECT_EQ(serial.failures.size(), 3u);
    for (std::size_t wi = 0; wi < 3; ++wi)
        EXPECT_TRUE(std::isnan(serial.columns[3].values[wi]));

    EXPECT_EQ(serial.failures, parallel.failures);
    EXPECT_EQ(render(serial), render(parallel));
}

TEST(CampaignFailSoft, WorkerExceptionBecomesFailedCell)
{
    CampaignPlan plan;
    plan.add(smallSpec("gcc", 2000), "good0");
    RunSpec bad = smallSpec("gcc", 2000);
    bad.totalOps = 0; // fatal(): malformed spec -> FatalError in worker
    plan.add(std::move(bad), "bad");
    plan.add(smallSpec("swim", 2000), "good2");

    std::vector<RunResult> results = runCampaign(plan, {}, 3);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[1].failed);
    EXPECT_NE(results[1].error.find("zero-length"), std::string::npos);
    EXPECT_TRUE(std::isnan(results[1].ipc));
    EXPECT_FALSE(results[2].failed);
    EXPECT_GT(results[0].ipc, 0.0);
    EXPECT_GT(results[2].ipc, 0.0);
}

TEST(CampaignOverlay, ConcurrentRunsObserveInstalledOverlay)
{
    Config overlay;
    overlay.setUint("core.iq_ex", 7);
    setRunOverlay(overlay);

    constexpr int nthreads = 8;
    std::vector<RunResult> results(nthreads);
    {
        std::vector<std::jthread> pool;
        for (int t = 0; t < nthreads; ++t) {
            pool.emplace_back([&results, t] {
                results[t] = runOnce(smallSpec("gcc", 2000));
            });
        }
    }
    clearRunOverlay();

    for (const RunResult &r : results) {
        EXPECT_FALSE(r.failed);
        EXPECT_EQ(r.pipeLabel, "5_7");
    }
    // After the clear the default pipeline is back.
    EXPECT_EQ(runOnce(smallSpec("gcc", 2000)).pipeLabel, "5_5");
}

TEST(CampaignTelemetryTest, TotalsAccumulateAcrossCampaigns)
{
    resetCampaignTotals();

    CampaignPlan plan;
    plan.add(smallSpec("gcc", 2000));
    plan.add(smallSpec("swim", 2000));
    runCampaign(plan, {}, 2);

    CampaignTelemetry last = lastCampaignTelemetry();
    EXPECT_EQ(last.runs, 2u);
    EXPECT_EQ(last.failures, 0u);
    EXPECT_GE(last.jobs, 1u);
    EXPECT_GT(last.wallSeconds, 0.0);
    EXPECT_GT(last.runsPerSecond(), 0.0);

    runCampaign(plan, {}, 1);
    CampaignTelemetry totals = campaignTotals();
    EXPECT_EQ(totals.runs, 4u);
    resetCampaignTotals();
    EXPECT_EQ(campaignTotals().runs, 0u);
}

TEST(CampaignTelemetryTest, IdleRunsToThePoolJoin)
{
    // One long cell and three short ones on four workers: the workers
    // that run out of cells early wait out the long one, and that tail
    // is idle time. Every worker's busy + claim-wait + idle is the
    // pool's lifetime, so it is the same on all four and at least the
    // long cell's busy time.
    store::resetProcessStore(); // every cell must really simulate
    CampaignPlan plan;
    plan.add(smallSpec("gcc", 60013));
    plan.add(smallSpec("swim", 1009));
    plan.add(smallSpec("go", 1013));
    plan.add(smallSpec("gcc", 1019));
    runCampaign(plan, {}, 4);

    const CampaignTelemetry t = lastCampaignTelemetry();
    ASSERT_EQ(t.simulated, 4u);
    ASSERT_EQ(t.workers.size(), 4u);
    double longest = 0.0;
    for (const WorkerTelemetry &w : t.workers)
        longest = std::max(longest, w.busySeconds);
    const double life = t.workers[0].busySeconds +
                        t.workers[0].claimWaitSeconds +
                        t.workers[0].idleSeconds;
    EXPECT_GE(life, longest);
    for (const WorkerTelemetry &w : t.workers) {
        EXPECT_GE(w.idleSeconds, 0.0) << "worker " << w.id;
        EXPECT_NEAR(w.busySeconds + w.claimWaitSeconds + w.idleSeconds,
                    life, 1e-9)
            << "worker " << w.id << " ran " << w.cells
            << " cells, busy " << w.busySeconds << " s, idle "
            << w.idleSeconds << " s; the long cell took " << longest
            << " s";
    }
    // The three short-cell workers spent most of the pool waiting.
    std::size_t waited = 0;
    for (const WorkerTelemetry &w : t.workers)
        waited += w.idleSeconds > 0.5 * longest ? 1 : 0;
    EXPECT_GE(waited, 3u);
}
