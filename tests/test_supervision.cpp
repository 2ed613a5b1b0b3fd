/**
 * @file
 * Tests for crash-isolated campaign supervision: forked workers
 * round-tripping results bit-exactly, injected worker crashes
 * (including SIGKILL) and wall-clock deadline overruns degrading to
 * crash/timeout cells after paused respawns, campaign journals
 * replaying completed and poison cells on resume, journal maintenance
 * (torn tails, pruning), plan fingerprint sensitivity, and a real
 * SIGINT drain of a forked campaign that resumes from its journal.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "harness/supervisor.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/result_store.hh"

using namespace loopsim;
namespace fs = std::filesystem;

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

/** The campaign tests' deliberately-wedged configuration: the
 *  in-process fail-soft path fires quickly and deterministically. */
Config
wedgeConfig()
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble("integrity.fault.wakeup_drop", 1.0);
    cfg.setUint("integrity.watchdog.window", 10000);
    return cfg;
}

/** Process-fault overrides: crash (or hang) the worker once it has
 *  retired @p at ops, with @p attempts spawn attempts. */
Config
crashConfig(std::uint64_t at, int sig, unsigned attempts)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setUint("integrity.fault.crash_at_op", at);
    cfg.setUint("integrity.fault.crash_signal",
                static_cast<std::uint64_t>(sig));
    cfg.setUint("integrity.supervisor.attempts", attempts);
    return cfg;
}

/** Process-fault overrides: hang the worker once it has retired @p at
 *  ops, with one spawn attempt. The wall-clock deadline is the
 *  process-wide one: set it with setDeadlineMs(); a SupervisionScope
 *  restores it. */
Config
hangConfig(std::uint64_t at)
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setUint("integrity.fault.hang_at_op", at);
    cfg.setUint("integrity.supervisor.attempts", 1);
    return cfg;
}

/** A fresh, empty directory under the test temp root.  The pid suffix keeps
 *  the aggregate and label-specific test binaries (which compile the same
 *  sources) from clobbering each other when ctest runs them in parallel. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / (name + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Restore every process-wide supervision knob on scope exit, so one
 *  failing test cannot poison the rest of the binary. */
struct SupervisionScope
{
    ~SupervisionScope()
    {
        setIsolation(false);
        setDeadlineMs(0);
        store::setJournalPath("");
        store::resetProcessStore();
        clearRunOverlay();
        setCampaignJobs(0);
    }
};

/** Bit-exact equality of everything the figures can see. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workloadLabel, b.workloadLabel);
    EXPECT_EQ(a.pipeLabel, b.pipeLabel);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.failKind, b.failKind);
    EXPECT_EQ(a.error, b.error);
    if (!a.failed) {
        EXPECT_EQ(a.ipc, b.ipc);
    } else {
        EXPECT_EQ(pointFailKind(a.ipc), pointFailKind(b.ipc));
    }
    EXPECT_EQ(a.operandSourceFractions, b.operandSourceFractions);
    EXPECT_EQ(a.operandSourceCounts, b.operandSourceCounts);
    EXPECT_EQ(a.gapCdf, b.gapCdf);
    EXPECT_EQ(a.scalars, b.scalars);
}

void
expectSameResults(const std::vector<RunResult> &a,
                  const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameResult(a[i], b[i]);
    }
}

} // anonymous namespace

TEST(SupervisorPolicyTest, FromConfigDefaultsAndOverrides)
{
    SupervisionScope scope;
    setDeadlineMs(0);

    SupervisorPolicy def = SupervisorPolicy::fromConfig(Config{});
    EXPECT_EQ(def.attempts, 2u);
    EXPECT_EQ(def.deadlineMs, 0u);

    // The deadline is always the process-wide one...
    setDeadlineMs(750);
    EXPECT_EQ(SupervisorPolicy::fromConfig(Config{}).deadlineMs, 750u);

    // ...and the attempts key wins over its default.
    Config cfg;
    cfg.setUint("integrity.supervisor.attempts", 5);
    SupervisorPolicy p = SupervisorPolicy::fromConfig(cfg);
    EXPECT_EQ(p.attempts, 5u);
    EXPECT_EQ(p.deadlineMs, 750u);
}

TEST(SupervisorFlags, SettersWinOverEnvironment)
{
    SupervisionScope scope;
    ASSERT_TRUE(isolationSupported());

    setIsolation(true);
    EXPECT_TRUE(isolationActive());
    setIsolation(false);
    EXPECT_FALSE(isolationActive());

    setDeadlineMs(4321);
    EXPECT_EQ(deadlineMs(), 4321u);
    setDeadlineMs(0);
    EXPECT_EQ(deadlineMs(), 0u);
}

TEST(SupervisedRun, HealthyCellMatchesInProcessBitExactly)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");

    RunResult inproc = runOnce(spec);
    SupervisedOutcome so = runCellSupervised(spec, {}, "gcc cell");

    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_EQ(so.timeouts, 0u);
    EXPECT_FALSE(so.interrupted);
    expectSameResult(so.result, inproc);
}

TEST(SupervisedRun, WorkerDoesNotReflushParentStdout)
{
    // A forked worker inherits the parent's unwritten stdio buffers; if
    // it flushed them, every cell would repeat the parent's pending
    // output.
    SupervisionScope scope;
    fs::path out = freshDir("stdout-once") / "stdout.txt";
    std::fflush(stdout);
    int saved = ::dup(STDOUT_FILENO);
    ASSERT_GE(saved, 0);
    int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ::dup2(fd, STDOUT_FILENO);
    ::close(fd);
    std::setvbuf(stdout, nullptr, _IOFBF, BUFSIZ);

    std::printf("unflushed-marker;");
    SupervisedOutcome healthy =
        runCellSupervised(smallSpec("gcc"), {}, "healthy cell");
    // A wedged cell fails soft, so the worker also writes warnings.
    RunSpec wedged = smallSpec("gcc");
    wedged.overrides = wedgeConfig();
    SupervisedOutcome warned = runCellSupervised(wedged, {}, "wedged cell");

    std::fflush(stdout);
    ::dup2(saved, STDOUT_FILENO);
    ::close(saved);

    EXPECT_EQ(healthy.crashes, 0u);
    EXPECT_EQ(warned.crashes, 0u);
    EXPECT_TRUE(warned.result.failed);
    std::ifstream in(out);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "unflushed-marker;");
}

TEST(SupervisedRun, SimFailureTravelsTheWireAsFailNotCrash)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = wedgeConfig();

    SupervisedOutcome so = runCellSupervised(spec, {}, "wedge cell");

    // The child fail-softed in-process and exited cleanly: the wire
    // carries a Sim verdict, not a worker death.
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Sim);
    EXPECT_EQ(pointFailKind(so.result.ipc), FailKind::Sim);
}

TEST(SupervisedRun, CrashDegradesAfterBackoffRespawns)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = crashConfig(500, SIGABRT, 2);

    using clock = std::chrono::steady_clock;
    const clock::time_point t0 = clock::now();
    SupervisedOutcome so = runCellSupervised(spec, {}, "crash cell");
    const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
        clock::now() - t0);

    EXPECT_EQ(so.attempts, 2u);
    EXPECT_EQ(so.crashes, 2u);
    EXPECT_EQ(so.timeouts, 0u);
    // One respawn, so one fixed pause between the two spawns.
    EXPECT_GE(took.count(), static_cast<long long>(kRespawnPauseMs));
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Crash);
    EXPECT_EQ(pointFailKind(so.result.ipc), FailKind::Crash);
    EXPECT_NE(so.result.error.find("signal"), std::string::npos);
    // Crash cells still render like any other cell.
    EXPECT_FALSE(so.result.workloadLabel.empty());
    EXPECT_FALSE(so.result.pipeLabel.empty());
}

TEST(SupervisedRun, SigkilledWorkerIsACrash)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = crashConfig(500, SIGKILL, 1);

    SupervisedOutcome so = runCellSupervised(spec, {}, "kill cell");

    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.crashes, 1u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Crash);
    EXPECT_NE(so.result.error.find("signal 9"), std::string::npos);
}

TEST(SupervisedRun, DeadlineReapsHungWorker)
{
    SupervisionScope scope;
    RunSpec spec = smallSpec("gcc");
    spec.overrides = hangConfig(500);
    setDeadlineMs(300);

    SupervisedOutcome so = runCellSupervised(spec, {}, "hang cell");

    EXPECT_EQ(so.attempts, 1u);
    EXPECT_EQ(so.timeouts, 1u);
    EXPECT_EQ(so.crashes, 0u);
    EXPECT_TRUE(so.result.failed);
    EXPECT_EQ(so.result.failKind, FailKind::Timeout);
    EXPECT_EQ(pointFailKind(so.result.ipc), FailKind::Timeout);
    EXPECT_NE(so.result.error.find("deadline"), std::string::npos);
}

TEST(JournalTest, AppendReopenReplaysVerdictsIncluded)
{
    fs::path dir = freshDir("journal_replay");
    store::Fingerprint plan_fp{0x1111u, 0x2222u};
    store::Fingerprint fp_ok{0xaaaau, 1u};
    store::Fingerprint fp_bad{0xbbbbu, 2u};

    RunResult ok = runOnce(smallSpec("gcc", 2000));
    RunResult bad;
    bad.failed = true;
    bad.failKind = FailKind::Crash;
    bad.error = "worker died on signal 11";
    bad.workloadLabel = "gcc";
    bad.pipeLabel = "5_5";
    bad.ipc = failPoint(FailKind::Crash);

    {
        store::CampaignJournal j(dir.string(), plan_fp, 3);
        ASSERT_TRUE(j.ok());
        EXPECT_TRUE(j.replayed().empty());
        j.append(fp_ok, ok);
        j.append(fp_bad, bad);
    }

    store::CampaignJournal j(dir.string(), plan_fp, 3);
    ASSERT_TRUE(j.ok());
    ASSERT_EQ(j.replayed().size(), 2u);
    expectSameResult(j.replayed().at(fp_ok), ok);
    const RunResult &poison = j.replayed().at(fp_bad);
    EXPECT_TRUE(poison.failed);
    EXPECT_EQ(poison.failKind, FailKind::Crash);
    EXPECT_EQ(poison.error, "worker died on signal 11");

    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].headerOk);
    EXPECT_EQ(scanned[0].entries, 2u);
    EXPECT_EQ(scanned[0].poison, 1u);
    EXPECT_EQ(scanned[0].planCells, 3u);
    EXPECT_FALSE(scanned[0].complete());
    EXPECT_FALSE(scanned[0].truncatedTail());
}

TEST(JournalTest, TornTailIsDetectedAndTruncatedOnReopen)
{
    fs::path dir = freshDir("journal_torn");
    store::Fingerprint plan_fp{0x3333u, 0x4444u};
    store::Fingerprint fp{0xccccu, 3u};
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    std::string path;
    {
        store::CampaignJournal j(dir.string(), plan_fp, 2);
        ASSERT_TRUE(j.ok());
        j.append(fp, ok);
        path = j.path();
    }

    // A crash mid-append leaves a short, garbled tail.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x40\x00\x00\x00torn", 8);
    }
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].headerOk);
    EXPECT_EQ(scanned[0].entries, 1u);
    EXPECT_TRUE(scanned[0].truncatedTail());

    // Reopening replays the valid prefix and truncates the tail, so
    // the next append lands on clean framing.
    {
        store::CampaignJournal j(dir.string(), plan_fp, 2);
        ASSERT_TRUE(j.ok());
        EXPECT_EQ(j.replayed().size(), 1u);
        j.append(store::Fingerprint{0xddddu, 4u}, ok);
    }
    scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_EQ(scanned[0].entries, 2u);
    EXPECT_FALSE(scanned[0].truncatedTail());
    EXPECT_TRUE(scanned[0].complete());
}

TEST(JournalTest, MismatchedHeaderStartsOver)
{
    fs::path dir = freshDir("journal_foreign");
    store::Fingerprint plan_fp{0x5555u, 0x6666u};
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    std::string path;
    {
        store::CampaignJournal j(dir.string(), plan_fp, 2);
        ASSERT_TRUE(j.ok());
        j.append(store::Fingerprint{1u, 1u}, ok);
        path = j.path();
    }

    // Same plan fingerprint, different plan size: a stale journal from
    // an edited campaign must not replay into the new one.
    store::CampaignJournal j(dir.string(), plan_fp, 7);
    ASSERT_TRUE(j.ok());
    EXPECT_TRUE(j.replayed().empty());
}

TEST(JournalTest, PruneRemovesCompletedKeepsResumable)
{
    fs::path dir = freshDir("journal_prune");
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    {
        store::CampaignJournal complete(dir.string(),
                                        store::Fingerprint{1u, 0u}, 1);
        complete.append(store::Fingerprint{10u, 0u}, ok);
        store::CampaignJournal partial(dir.string(),
                                       store::Fingerprint{2u, 0u}, 5);
        partial.append(store::Fingerprint{20u, 0u}, ok);
    }
    ASSERT_EQ(store::scanJournals(dir.string()).size(), 2u);

    EXPECT_EQ(store::pruneJournals(dir.string()), 1u);
    auto left = store::scanJournals(dir.string());
    ASSERT_EQ(left.size(), 1u);
    EXPECT_FALSE(left[0].complete());
}

TEST(JournalTest, SecondHandleOnAHeldJournalIsNotOk)
{
    fs::path dir = freshDir("journal_locked");
    store::Fingerprint plan_fp{0x7777u, 0x8888u};
    store::Fingerprint fp_a{0xaaaau, 5u};
    store::Fingerprint fp_b{0xbbbbu, 6u};
    RunResult ok = runOnce(smallSpec("gcc", 2000));

    {
        store::CampaignJournal first(dir.string(), plan_fp, 2);
        ASSERT_TRUE(first.ok());
        first.append(fp_a, ok);

        // flock(2) conflicts across separate open()s even in one
        // process, so this stands in for a concurrent campaign. It
        // must neither truncate nor append to the held file.
        store::CampaignJournal second(dir.string(), plan_fp, 2);
        EXPECT_FALSE(second.ok());
        EXPECT_TRUE(second.replayed().empty());
        second.append(fp_b, ok);

        first.append(fp_b, ok);
    }

    store::CampaignJournal replay(dir.string(), plan_fp, 2);
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay.replayed().size(), 2u);
    expectSameResult(replay.replayed().at(fp_a), ok);
    expectSameResult(replay.replayed().at(fp_b), ok);
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].complete());
    EXPECT_FALSE(scanned[0].truncatedTail());
}

TEST(PlanFingerprintTest, StableAndSensitive)
{
    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "a");
    plan.add(smallSpec("swim"), "b");

    CampaignPlan same;
    same.add(smallSpec("gcc"), "renamed"); // labels are diagnostic only
    same.add(smallSpec("swim"));
    EXPECT_EQ(fingerprintPlan(plan), fingerprintPlan(same));

    CampaignPlan reordered;
    reordered.add(smallSpec("swim"));
    reordered.add(smallSpec("gcc"));
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(reordered));

    CampaignPlan grown = plan;
    grown.add(smallSpec("turb3d"));
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(grown));

    CampaignPlan tweaked;
    tweaked.add(smallSpec("gcc", 4001));
    tweaked.add(smallSpec("swim"));
    EXPECT_NE(fingerprintPlan(plan), fingerprintPlan(tweaked));
}

TEST(CampaignIsolation, CrashedCellLosesOnlyItself)
{
    SupervisionScope scope;
    store::resetProcessStore();

    // Campaign-wide fault overlay, targeted at one workload: only the
    // swim cell crashes, the rest of the sweep must stay healthy.
    Config overlay;
    overlay.setBool("integrity.fault.enable", true);
    overlay.setUint("integrity.fault.crash_at_op", 500);
    overlay.set("integrity.fault.crash_target", "swim");
    overlay.setUint("integrity.supervisor.attempts", 1);
    setRunOverlay(overlay);
    setIsolation(true);

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    plan.add(smallSpec("swim"), "swim");
    plan.add(smallSpec("turb3d"), "turb3d");
    std::vector<RunResult> results = runCampaign(plan, {}, 2);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].failKind, FailKind::Crash);
    EXPECT_FALSE(results[2].failed);

    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.isolatedRuns, 3u);
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_EQ(t.timeouts, 0u);
    EXPECT_EQ(t.failures, 1u);
    EXPECT_FALSE(t.interrupted);
}

TEST(CampaignIsolation, HungCellTimesOutOthersHealthy)
{
    SupervisionScope scope;
    store::resetProcessStore();

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    RunSpec hung = smallSpec("swim");
    hung.overrides = hangConfig(500);
    plan.add(std::move(hung), "swim hang");
    setIsolation(true);
    // The deadline covers the healthy cell too: leave it room for a
    // stalled host, or it times out and respawns as well.
    setDeadlineMs(2000);

    std::vector<RunResult> results = runCampaign(plan, {}, 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[1].failKind, FailKind::Timeout);

    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.timeouts, 1u);
    EXPECT_EQ(t.crashes, 0u);
}

TEST(CampaignIsolation, IsolatedMatchesInProcessBitExactly)
{
    SupervisionScope scope;
    store::resetProcessStore();

    // Healthy cells plus a wedged one, so the fail-soft footer crosses
    // the pipe too.
    CampaignPlan plan;
    for (const char *w : {"gcc", "swim", "turb3d"}) {
        plan.add(smallSpec(w), std::string(w) + "/base");
        RunSpec dra = smallSpec(w);
        setDraPipeline(dra.overrides, 5);
        plan.add(std::move(dra), std::string(w) + "/dra");
    }
    RunSpec wedged = smallSpec("gcc");
    wedged.overrides = wedgeConfig();
    plan.add(std::move(wedged), "gcc/wedge");

    setIsolation(false);
    std::vector<RunResult> inproc = runCampaign(plan, {}, 4);
    EXPECT_EQ(lastCampaignTelemetry().isolatedRuns, 0u);

    store::resetProcessStore(); // clear the memo: really re-execute
    setIsolation(true);
    std::vector<RunResult> isolated = runCampaign(plan, {}, 4);
    EXPECT_EQ(lastCampaignTelemetry().isolatedRuns, plan.size());
    EXPECT_EQ(lastCampaignTelemetry().crashes, 0u);

    expectSameResults(inproc, isolated);
}

TEST(CampaignResume, JournalReplaysCompletedCells)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_resume");

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    plan.add(smallSpec("swim"), "swim");
    plan.add(smallSpec("turb3d"), "turb3d");
    plan.add(smallSpec("gcc", 5000), "gcc long");

    // The reference: a clean, journal-less run.
    std::vector<RunResult> reference = runCampaign(plan, {}, 2);

    // Fake an interrupted campaign: a journal holding the first two
    // cells only, exactly as a SIGINT drain would have left it.
    {
        store::CampaignJournal j(dir.string(), fingerprintPlan(plan),
                                 plan.size());
        ASSERT_TRUE(j.ok());
        j.append(store::fingerprintRun(plan.at(0).spec, {}),
                 reference[0]);
        j.append(store::fingerprintRun(plan.at(1).spec, {}),
                 reference[1]);
    }

    store::resetProcessStore(); // the journal, not the memo, must answer
    store::setJournalPath(dir.string());
    std::vector<RunResult> resumed = runCampaign(plan, {}, 2);

    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, 2u);
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.memoHits, 0u);
    expectSameResults(reference, resumed);

    // The journal now covers the whole plan: a second resume replays
    // everything and simulates nothing.
    store::resetProcessStore();
    std::vector<RunResult> warm = runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, plan.size());
    EXPECT_EQ(t.simulated, 0u);
    expectSameResults(reference, warm);
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_TRUE(scanned[0].complete());
}

TEST(CampaignResume, PoisonVerdictIsReplayedNotReExecuted)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_poison");
    store::setJournalPath(dir.string());
    setIsolation(true);

    CampaignPlan plan;
    plan.add(smallSpec("gcc"), "gcc");
    RunSpec doomed = smallSpec("swim");
    doomed.overrides = crashConfig(500, SIGABRT, 1);
    plan.add(std::move(doomed), "swim crash");

    std::vector<RunResult> first = runCampaign(plan, {}, 2);
    EXPECT_EQ(lastCampaignTelemetry().crashes, 1u);
    EXPECT_EQ(first[1].failKind, FailKind::Crash);
    auto scanned = store::scanJournals(dir.string());
    ASSERT_EQ(scanned.size(), 1u);
    EXPECT_EQ(scanned[0].poison, 1u);

    // Resume with isolation off: if the poison cell were re-executed
    // it would crash this very process, so surviving the rerun *is*
    // the assertion — and the telemetry must show pure replay.
    store::resetProcessStore();
    setIsolation(false);
    std::vector<RunResult> second = runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, plan.size());
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.crashes, 0u);
    expectSameResults(first, second);
}

TEST(CampaignInterrupt, SigintDrainsJournalsAndResumes)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_sigint");

    CampaignPlan plan;
    for (std::uint64_t i = 0; i < 8; ++i) {
        plan.add(smallSpec(i % 2 == 0 ? "gcc" : "swim", 20000 + i),
                 "cell " + std::to_string(i));
    }

    // The reference, computed before anything forks.
    std::vector<RunResult> reference = runCampaign(plan, {}, 2);
    store::resetProcessStore();

    std::fflush(nullptr);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: run the campaign with a journal; on SIGINT the drain
        // exits 128+SIGINT by itself, on completion exit 0.
        store::setJournalPath(dir.string());
        runCampaign(plan, {}, 2);
        ::_exit(0);
    }

    // Wait for the child to journal at least one cell, then interrupt.
    bool saw_entry = false;
    for (int spin = 0; spin < 3000; ++spin) {
        for (const auto &j : store::scanJournals(dir.string())) {
            if (j.entries > 0)
                saw_entry = true;
        }
        if (saw_entry)
            break;
        ::usleep(10000);
    }
    ::kill(pid, SIGINT);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    // 130 when the signal landed mid-campaign; 0 when the campaign won
    // the race and finished first. Both leave a resumable journal.
    const int code = WEXITSTATUS(status);
    EXPECT_TRUE(code == 130 || code == 0) << "exit status " << code;

    // Resume in this process: replay what the child journaled,
    // simulate only the rest, and match the reference bit-exactly.
    store::setJournalPath(dir.string());
    std::vector<RunResult> resumed = runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed + t.simulated, plan.size());
    if (saw_entry && code == 130) {
        EXPECT_GE(t.resumed, 1u);
    }
    if (code == 0) {
        EXPECT_EQ(t.resumed, plan.size());
    }
    expectSameResults(reference, resumed);
}

TEST(CampaignInterrupt, DrainedTelemetryCarriesHostCpus)
{
    SupervisionScope scope;
    store::resetProcessStore();
    fs::path dir = freshDir("campaign_drain_telemetry");
    const fs::path report = dir / "telemetry.txt";

    // gcc finishes and is journaled; swim hangs until the drain kills
    // it, so the SIGINT always lands mid-campaign.
    CampaignPlan plan;
    plan.add(smallSpec("gcc", 20100), "gcc");
    plan.add(smallSpec("swim", 20100), "swim");

    std::fflush(nullptr);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        Config overlay = hangConfig(500);
        overlay.set("integrity.fault.hang_target", "swim");
        setRunOverlay(overlay);
        setIsolation(true);
        setDeadlineMs(60000);
        store::setJournalPath(dir.string());
        setCampaignInterruptFlush([&report] {
            const CampaignTelemetry t = lastCampaignTelemetry();
            std::ofstream(report) << t.hostCpus << " " << t.interrupted
                                  << " " << t.simulated << "\n";
        });
        runCampaign(plan, {}, 1);
        ::_exit(0);
    }

    bool saw_entry = false;
    for (int spin = 0; spin < 3000 && !saw_entry; ++spin) {
        for (const auto &j : store::scanJournals(dir.string()))
            saw_entry = saw_entry || j.entries > 0;
        if (!saw_entry)
            ::usleep(10000);
    }
    ::kill(pid, SIGINT);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(saw_entry);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);

    unsigned host_cpus = 0;
    bool interrupted = false;
    std::size_t simulated = 0;
    std::ifstream in(report);
    ASSERT_TRUE(in >> host_cpus >> interrupted >> simulated);
    EXPECT_EQ(host_cpus, hostCpus());
    EXPECT_TRUE(interrupted);
    EXPECT_EQ(simulated, 1u);
}
