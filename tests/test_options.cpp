/**
 * @file
 * Tests for the run options (base/options.hh): every LOOPSIM_*
 * variable is parsed by resolveOptions() from an injected environment
 * (no setenv in a threaded binary), setters win over the environment,
 * and unknown or removed names are rejected.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "base/debug.hh"
#include "base/options.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/supervisor.hh"
#include "sim/feedback_port.hh"
#include "sim/simulator.hh"
#include "store/journal.hh"
#include "store/result_store.hh"

using namespace loopsim;

namespace
{

unsigned
flagBit(debug::Flag f)
{
    return 1u << static_cast<unsigned>(f);
}

/** One variable: a good value and what it must set, and a bad value
 *  (null for paths, where any non-empty text is good). */
struct Row
{
    const char *name;
    const char *good;
    std::function<bool(const RunOptions &)> goodSet;
    const char *bad;
};

const std::vector<Row> &
rows()
{
    static const std::vector<Row> table = {
        {"LOOPSIM_AUDIT", "on", [](const RunOptions &o) { return o.audit; },
         "maybe"},
        {"LOOPSIM_BENCH_JSON", "out.json",
         [](const RunOptions &o) { return o.benchJson == "out.json"; },
         nullptr},
        {"LOOPSIM_BENCH_OPS", "5000",
         [](const RunOptions &o) { return o.benchOps == 5000; }, "0"},
        {"LOOPSIM_DEADLINE_MS", "250",
         [](const RunOptions &o) { return o.deadlineMs == 250; }, "5s"},
        {"LOOPSIM_DEBUG", "Pool,reg",
         [](const RunOptions &o) {
             return o.debugFlags ==
                    (flagBit(debug::Flag::Pool) | flagBit(debug::Flag::Reg));
         },
         "Pool,bogus"},
        {"LOOPSIM_DENSE_KERNEL", "yes",
         [](const RunOptions &o) { return o.denseKernel; }, "2"},
        {"LOOPSIM_ISOLATE", "TRUE",
         [](const RunOptions &o) { return o.isolate; }, "maybe"},
        {"LOOPSIM_JOBS", "3", [](const RunOptions &o) { return o.jobs == 3; },
         "abc"},
        {"LOOPSIM_JOURNAL", "jdir",
         [](const RunOptions &o) { return o.journalPath == "jdir"; },
         nullptr},
        {"LOOPSIM_OVERLAY", "a.b=1, c.d=x",
         [](const RunOptions &o) {
             return o.overlay ==
                    std::map<std::string, std::string>{{"a.b", "1"},
                                                       {"c.d", "x"}};
         },
         "mem.tlb.walk"},
        {"LOOPSIM_STORE", "sdir",
         [](const RunOptions &o) { return o.storePath == "sdir"; }, nullptr},
        {"LOOPSIM_TRACE", "t.json",
         [](const RunOptions &o) {
             return o.tracePath == "t.json" && o.traceCollection;
         },
         nullptr},
    };
    return table;
}

/** Every field of @p o equals the default (nothing set). */
void
expectDefaults(const RunOptions &o)
{
    const RunOptions d;
    EXPECT_EQ(o.debugFlags, d.debugFlags);
    EXPECT_EQ(o.audit, d.audit);
    EXPECT_EQ(o.denseKernel, d.denseKernel);
    EXPECT_EQ(o.isolate, d.isolate);
    EXPECT_EQ(o.jobs, d.jobs);
    EXPECT_EQ(o.deadlineMs, d.deadlineMs);
    EXPECT_EQ(o.benchOps, d.benchOps);
    EXPECT_EQ(o.storePath, d.storePath);
    EXPECT_EQ(o.journalPath, d.journalPath);
    EXPECT_EQ(o.tracePath, d.tracePath);
    EXPECT_EQ(o.traceCollection, d.traceCollection);
    EXPECT_EQ(o.benchJson, d.benchJson);
    EXPECT_TRUE(o.overlay.empty());
}

/** Put the process options back when a test is done with them. */
struct ProcessOptionsScope
{
    RunOptions saved = processOptions();
    ~ProcessOptionsScope() { processOptions() = saved; }
};

} // anonymous namespace

TEST(RunOptions, EveryVariableUnsetEmptyGoodAndBad)
{
    ASSERT_EQ(rows().size(), 12u);
    expectDefaults(resolveOptions({}));
    for (const Row &r : rows()) {
        SCOPED_TRACE(r.name);
        expectDefaults(resolveOptions({{r.name, ""}}));
        EXPECT_TRUE(r.goodSet(resolveOptions({{r.name, r.good}})));
        if (!r.bad)
            continue;
        try {
            resolveOptions({{r.name, r.bad}});
            ADD_FAILURE() << "accepted " << r.bad;
        } catch (const OptionError &err) {
            EXPECT_EQ(err.variable, r.name);
            EXPECT_EQ(err.value, r.bad);
            EXPECT_NE(std::string(err.what()).find(r.name),
                      std::string::npos);
            EXPECT_NE(std::string(err.what()).find(r.bad),
                      std::string::npos);
            EXPECT_NE(err.reason.find("expected"), std::string::npos);
        }
    }
}

TEST(RunOptions, GrammarsMatchTheirSiblings)
{
    // Booleans: Config::getBool's words, any case.
    for (const char *on : {"true", "1", "yes", "On"})
        EXPECT_TRUE(resolveOptions({{"LOOPSIM_AUDIT", on}}).audit);
    for (const char *off : {"false", "0", "no", "OFF"}) {
        EXPECT_FALSE(resolveOptions({{"LOOPSIM_AUDIT", off}}).audit);
        EXPECT_FALSE(resolveOptions({{"LOOPSIM_ISOLATE", off}}).isolate);
    }
    // Counts are whole-string decimal: no sign, suffix or hex.
    for (const char *bad : {"-1", "+5", "5 ", "0x10", "1e3"}) {
        EXPECT_THROW(resolveOptions({{"LOOPSIM_DEADLINE_MS", bad}}),
                     OptionError)
            << bad;
    }
    EXPECT_EQ(resolveOptions({{"LOOPSIM_JOBS", "auto"}}).jobs, hostCpus());
    EXPECT_EQ(resolveOptions({{"LOOPSIM_JOBS", "5000"}}).jobs, 1024u);
    EXPECT_EQ(resolveOptions({{"LOOPSIM_DEBUG", "All"}}).debugFlags,
              (1u << static_cast<unsigned>(debug::Flag::NumFlags)) - 1);
    // The overlay splits and trims as Config::parseAssignment does.
    EXPECT_THROW(resolveOptions({{"LOOPSIM_OVERLAY", "=1"}}), OptionError);
    EXPECT_EQ(resolveOptions({{"LOOPSIM_OVERLAY", "k=v w=x,,"}}).overlay,
              (std::map<std::string, std::string>{{"k", "v"}, {"w", "x"}}));
}

TEST(RunOptions, DebugGrammarNamesEveryFlag)
{
    try {
        resolveOptions({{"LOOPSIM_DEBUG", "bogus"}});
        FAIL() << "accepted a bogus flag";
    } catch (const OptionError &err) {
        for (unsigned f = 0;
             f < static_cast<unsigned>(debug::Flag::NumFlags); ++f) {
            const char *name = debug::flagName(static_cast<debug::Flag>(f));
            EXPECT_NE(err.reason.find(name), std::string::npos) << name;
        }
    }
}

TEST(RunOptions, UnknownAndRemovedNamesAreRejected)
{
    try {
        resolveOptions({{"LOOPSIM_BOGUS", "1"}});
        FAIL() << "accepted an unknown variable";
    } catch (const OptionError &err) {
        EXPECT_EQ(err.variable, "LOOPSIM_BOGUS");
        for (const Row &r : rows())
            EXPECT_NE(err.reason.find(r.name), std::string::npos);
    }
    const std::vector<std::pair<const char *, const char *>> removed = {
        {"LOOPSIM_CHECK", "integrity.checks.enable=true"},
        {"LOOPSIM_DEBUG_MISS", "LOOPSIM_DEBUG=Dra"},
        {"LOOPSIM_PROFILE", "always on"},
        {"LOOPSIM_TRACE_POOL", "LOOPSIM_DEBUG=Pool"},
        {"LOOPSIM_TRACE_REG", "LOOPSIM_DEBUG=Reg"},
    };
    for (const auto &[name, replacement] : removed) {
        try {
            resolveOptions({{name, "1"}});
            ADD_FAILURE() << "accepted " << name;
        } catch (const OptionError &err) {
            EXPECT_EQ(err.variable, name);
            EXPECT_NE(err.reason.find(replacement), std::string::npos)
                << err.what();
        }
    }
    // An empty value counts as unset, whatever the name; CMake's
    // configure-time variable is not the program's business.
    expectDefaults(resolveOptions({{"LOOPSIM_BOGUS", ""}}));
    expectDefaults(resolveOptions({{"LOOPSIM_SANITIZE", "thread"}}));
}

TEST(RunOptions, RemovedOverlayKeysAreRejected)
{
    // A removed config key in the overlay is refused with the reason,
    // even beside keys that are still read.
    std::vector<std::pair<std::string, std::string>> removed = {
        {"integrity.supervisor.deadline_ms", "--deadline-ms"}};
    for (const char *field :
         {"attempts", "budget_growth", "fail_soft", "seed_stride"})
        removed.emplace_back(std::string("integrity.retry.") + field,
                             "runs once");
    for (const char *field :
         {"backoff_ms", "backoff_growth", "backoff_max_ms"})
        removed.emplace_back(std::string("integrity.supervisor.") + field,
                             "fixed 100 ms");
    for (const auto &[key, why] : removed) {
        try {
            resolveOptions(
                {{"LOOPSIM_OVERLAY", "core.width=8," + key + "=1"}});
            ADD_FAILURE() << "accepted " << key;
        } catch (const OptionError &err) {
            EXPECT_EQ(err.variable, "LOOPSIM_OVERLAY");
            EXPECT_NE(err.reason.find(key), std::string::npos) << err.what();
            EXPECT_NE(err.reason.find(why), std::string::npos) << err.what();
        }
    }
}

TEST(RunOptions, SettersWinOverTheEnvironment)
{
    ProcessOptionsScope scope;
    // A process whose environment set these.
    processOptions() = resolveOptions({{"LOOPSIM_JOBS", "7"},
                                       {"LOOPSIM_STORE", "env-store"},
                                       {"LOOPSIM_JOURNAL", "env-journal"},
                                       {"LOOPSIM_DEADLINE_MS", "99"},
                                       {"LOOPSIM_ISOLATE", "1"},
                                       {"LOOPSIM_DENSE_KERNEL", "1"}});
    EXPECT_EQ(campaignJobs(), 7u);
    EXPECT_EQ(store::storePath(), "env-store");
    EXPECT_EQ(defaultKernelMode(), KernelMode::Dense);

    setCampaignJobs(2);
    store::setJournalPath("set-journal");
    setDeadlineMs(5);
    setIsolation(false);
    setDefaultKernelMode(KernelMode::Sparse);
    EXPECT_EQ(campaignJobs(), 2u);
    EXPECT_EQ(store::journalPath(), "set-journal");
    EXPECT_EQ(deadlineMs(), 5u);
    EXPECT_FALSE(isolationActive());
    EXPECT_EQ(defaultKernelMode(), KernelMode::Sparse);

    // A bench flag wins over the same variable, and an absent flag
    // keeps it.
    auto argv = [](std::vector<const char *> args) {
        return const_cast<char **>(args.data());
    };
    std::vector<const char *> with{"bench", "--jobs", "3"};
    EXPECT_EQ(benchutil::parseCli(3, argv(with)).opts.jobs, 3u);
    std::vector<const char *> without{"bench"};
    EXPECT_EQ(benchutil::parseCli(1, argv(without)).opts.jobs, 2u);
    store::resetProcessStore();
}

TEST(RunOptions, EnvironmentOverlayAndSetRunOverlayAreOneField)
{
    ProcessOptionsScope scope;
    processOptions().overlay =
        resolveOptions({{"LOOPSIM_OVERLAY", "core.iq_ex=7"}}).overlay;
    RunSpec spec;
    spec.overrides.setUint("core.iq_ex", 6);
    spec.overrides.setUint("core.dec_iq", 9);
    // defaults < spec.overrides < the process overlay.
    Config cfg = effectiveRunConfig(spec);
    EXPECT_EQ(cfg.getUint("core.iq_ex", 0), 7u);
    EXPECT_EQ(cfg.getUint("core.dec_iq", 0), 9u);

    // setRunOverlay replaces the environment's assignments.
    Config overlay;
    overlay.setUint("core.dec_iq", 4);
    setRunOverlay(overlay);
    cfg = effectiveRunConfig(spec);
    EXPECT_EQ(cfg.getUint("core.iq_ex", 0), 6u);
    EXPECT_EQ(cfg.getUint("core.dec_iq", 0), 4u);
    clearRunOverlay();
    EXPECT_TRUE(processOptions().overlay.empty());
}

TEST(RunOptions, DebugAndAuditSettersKeepTheGateAndTheStructInStep)
{
    ProcessOptionsScope scope;
    debug::setFlags("Pool");
    EXPECT_EQ(debug::flagsText(processOptions().debugFlags), "Pool");
    EXPECT_FALSE(audit::enabled());
    debug::clearFlags();
    EXPECT_EQ(processOptions().debugFlags, 0u);
    {
        audit::Scoped on(true);
        EXPECT_TRUE(audit::enabled());
        EXPECT_TRUE(processOptions().audit);
        // Clearing the debug flags leaves audit alone.
        debug::clearFlags();
        EXPECT_TRUE(audit::enabled());
    }
    EXPECT_FALSE(audit::enabled());
    EXPECT_FALSE(processOptions().audit);
}
