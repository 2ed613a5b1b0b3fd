/**
 * @file
 * Property-based sweeps: every benchmark profile on a matrix of machine
 * configurations must drain completely, leak nothing, keep its
 * statistics self-consistent, and respect basic performance bounds.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/core.hh"
#include "core_test_util.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/workload_set.hh"

using namespace loopsim;
using loopsim::testutil::exportedStat;

namespace
{

struct MachineVariant
{
    const char *label;
    void (*apply)(Config &);
};

void applyBase(Config &) {}

void
applyDra(Config &cfg)
{
    cfg.setBool("dra.enable", true);
}

void
applyLongPipe(Config &cfg)
{
    cfg.setUint("core.dec_iq", 9);
    cfg.setUint("core.iq_ex", 9);
    cfg.setUint("core.regfile_latency", 7);
}

void
applySmallWindow(Config &cfg)
{
    cfg.setUint("core.iq.entries", 32);
    cfg.setUint("core.rob.entries", 64);
}

void
applyStall(Config &cfg)
{
    cfg.set("core.load_recovery", "stall");
}

void
applyRefetch(Config &cfg)
{
    cfg.set("core.load_recovery", "refetch");
}

void
applyShadowKill(Config &cfg)
{
    cfg.setBool("core.kill_all_in_shadow", true);
}

void
applyNoWrongPath(Config &cfg)
{
    cfg.setBool("core.wrong_path", false);
}

constexpr MachineVariant variants[] = {
    {"base", applyBase},
    {"dra", applyDra},
    {"longpipe", applyLongPipe},
    {"smallwindow", applySmallWindow},
    {"stall", applyStall},
    {"refetch", applyRefetch},
    {"shadowkill", applyShadowKill},
    {"nowrongpath", applyNoWrongPath},
};

using SweepParam = std::tuple<std::string, std::size_t>;

class CoreSweep : public ::testing::TestWithParam<SweepParam>
{
};

} // anonymous namespace

TEST_P(CoreSweep, DrainsCleanlyWithSaneStats)
{
    const auto &[bench, variant_idx] = GetParam();
    const MachineVariant &variant = variants[variant_idx];

    Config cfg;
    variant.apply(cfg);

    constexpr std::uint64_t ops = 12000;
    SyntheticTraceGenerator gen(spec95Profile(bench), 0, ops);
    std::vector<TraceSource *> srcs{&gen};
    Core core(cfg, srcs);
    Simulator sim;
    sim.add(&core);
    sim.run(5000000);
    ASSERT_FALSE(sim.hitCycleLimit()) << bench << "/" << variant.label;

    // Everything retires; nothing leaks.
    EXPECT_EQ(core.retiredOps(), ops);
    core.checkQuiescent();

    // Performance bounds: positive and below the machine width.
    double ipc = core.ipc();
    EXPECT_GT(ipc, 0.01) << bench << "/" << variant.label;
    EXPECT_LE(ipc, 8.0) << bench << "/" << variant.label;

    // Issue accounting: every retired op issued at least once, and
    // first-issues (issued - reissued) cover at least the retired
    // stream (wrong-path instructions may add more).
    EXPECT_GE(exportedStat(core, "issued"), exportedStat(core, "retired"));
    EXPECT_GE(exportedStat(core, "issued") - exportedStat(core, "reissued"),
              exportedStat(core, "retired"));
    // Squashed work never exceeds what was renamed.
    EXPECT_LE(exportedStat(core, "squashed"), exportedStat(core, "renamed"));

    // Stall mode never speculates on loads, so nothing can be killed.
    if (std::string(variant.label) == "stall" && !core.machine().dra) {
        EXPECT_EQ(exportedStat(core, "loadKilledOps"), 0.0);
    }

    // Operand-source accounting covers both sources of every valid
    // execution (including wrong-path and replayed executions), so it
    // is bounded by two reads per issue event.
    double operands = core.operandSourceStat().value();
    EXPECT_GT(operands, 0.5 * double(ops));
    EXPECT_LE(operands, 2.0 * exportedStat(core, "issued"));

    if (!core.machine().dra) {
        // The base machine cannot take operand misses (§2.2.1).
        EXPECT_EQ(exportedStat(core, "operandMissEvents"), 0.0);
        EXPECT_EQ(core.operandSourceStat().bin(0), 0.0); // no pre-reads
        EXPECT_EQ(core.operandSourceStat().bin(2), 0.0); // no CRC
    } else {
        // The DRA machine never reads the RF in the IQ-EX path.
        EXPECT_EQ(core.operandSourceStat().bin(3), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllMachines, CoreSweep,
    ::testing::Combine(::testing::Values("compress", "gcc", "go",
                                         "m88ksim", "apsi", "hydro2d",
                                         "mgrid", "su2cor", "swim",
                                         "turb3d"),
                       ::testing::Range<std::size_t>(0,
                                                     std::size(variants))),
    [](const ::testing::TestParamInfo<SweepParam> &pinfo) {
        return std::get<0>(pinfo.param) + "_" +
               variants[std::get<1>(pinfo.param)].label;
    });

namespace
{

class SmtSweep : public ::testing::TestWithParam<std::string>
{
};

} // anonymous namespace

TEST_P(SmtSweep, PairsDrainAndShareTheMachine)
{
    Workload w = resolveWorkload(GetParam());
    ASSERT_EQ(w.threads.size(), 2u);

    constexpr std::uint64_t per_thread = 8000;
    SyntheticTraceGenerator g0(w.threads[0], 0, per_thread);
    SyntheticTraceGenerator g1(w.threads[1], 1, per_thread);
    std::vector<TraceSource *> srcs{&g0, &g1};
    Config cfg;
    Core core(cfg, srcs);
    Simulator sim;
    sim.add(&core);
    sim.run(5000000);
    ASSERT_FALSE(sim.hitCycleLimit());

    EXPECT_EQ(core.retiredOps(0), per_thread);
    EXPECT_EQ(core.retiredOps(1), per_thread);
    core.checkQuiescent();
}

INSTANTIATE_TEST_SUITE_P(PaperPairs, SmtSweep,
                         ::testing::Values("m88-comp", "go-su2cor",
                                           "apsi-swim"),
                         [](const ::testing::TestParamInfo<std::string>
                                &pinfo) {
                             std::string n = pinfo.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(CoreDeterminism, IdenticalRunsIdenticalCycles)
{
    auto run_once = [] {
        SyntheticTraceGenerator gen(spec95Profile("gcc"), 0, 15000);
        std::vector<TraceSource *> srcs{&gen};
        Config cfg;
        Core core(cfg, srcs);
        Simulator sim;
        sim.add(&core);
        sim.run(5000000);
        return core.cyclesRun();
    };
    Cycle a = run_once();
    Cycle b = run_once();
    EXPECT_EQ(a, b);
}

TEST(CoreDeterminism, DifferentSeedsDifferentTiming)
{
    auto run_with_seed = [](std::uint64_t seed) {
        BenchmarkProfile p = spec95Profile("gcc");
        p.seed = seed;
        SyntheticTraceGenerator gen(p, 0, 15000);
        std::vector<TraceSource *> srcs{&gen};
        Config cfg;
        Core core(cfg, srcs);
        Simulator sim;
        sim.add(&core);
        sim.run(5000000);
        return core.cyclesRun();
    };
    EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(CoreProperty, LongerPipelineNeverHelps)
{
    // Monotonicity of Figure 4, per benchmark: stretching the decode-
    // to-execute path cannot make the machine meaningfully faster.
    for (const char *bench : {"gcc", "swim", "m88ksim"}) {
        auto cycles_for = [&](unsigned dec_iq, unsigned iq_ex) {
            Config cfg;
            cfg.setUint("core.dec_iq", dec_iq);
            cfg.setUint("core.iq_ex", iq_ex);
            cfg.setUint("core.regfile_latency", iq_ex - 2);
            SyntheticTraceGenerator gen(spec95Profile(bench), 0, 20000);
            std::vector<TraceSource *> srcs{&gen};
            Core core(cfg, srcs);
            Simulator sim;
            sim.add(&core);
            sim.run(5000000);
            return core.cyclesRun();
        };
        Cycle short_pipe = cycles_for(3, 3);
        Cycle long_pipe = cycles_for(9, 9);
        EXPECT_GT(double(long_pipe), 0.99 * double(short_pipe)) << bench;
    }
}
