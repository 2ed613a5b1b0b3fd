/**
 * @file
 * Tests for the experiment harness and report rendering: run
 * construction, pipeline helpers, determinism, figure drivers on small
 * inputs, and table/CSV output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

TEST(Experiment, DefaultConfigIsTheBaseMachine)
{
    Config cfg = defaultFigureConfig();
    EXPECT_EQ(cfg.getUint("core.iq.entries", 0), 128u);
    EXPECT_EQ(cfg.getUint("core.dec_iq", 0), 5u);
    EXPECT_EQ(cfg.getUint("core.iq_ex", 0), 5u);
}

TEST(Experiment, SetPipelineDerivesRegfileLatency)
{
    Config cfg;
    setPipeline(cfg, 7, 5);
    EXPECT_EQ(cfg.getUint("core.dec_iq", 0), 7u);
    EXPECT_EQ(cfg.getUint("core.iq_ex", 0), 5u);
    EXPECT_EQ(cfg.getUint("core.regfile_latency", 0), 3u);
    EXPECT_THROW(setPipeline(cfg, 3, 2), FatalError);
}

TEST(Experiment, DraAndBasePipelineHelpers)
{
    Config base;
    setBasePipeline(base, 5);
    EXPECT_FALSE(base.getBool("dra.enable", true));
    EXPECT_EQ(base.getUint("core.iq_ex", 0), 7u);

    Config dra;
    setDraPipeline(dra, 5);
    EXPECT_TRUE(dra.getBool("dra.enable", false));
}

TEST(Experiment, RunOnceProducesConsistentResult)
{
    RunSpec spec;
    spec.workload = resolveWorkload("m88ksim");
    spec.totalOps = 15000;
    spec.warmupOps = 5000;
    RunResult r = runOnce(spec);

    EXPECT_EQ(r.workloadLabel, "m88");
    EXPECT_EQ(r.pipeLabel, "5_5");
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LE(r.retired, 15000u);
    EXPECT_GT(r.retired, 10000u);

    // Operand fractions form a distribution.
    double sum = 0.0;
    for (double f : r.operandSourceFractions)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // The gap CDF is monotone in [0,1].
    ASSERT_EQ(r.gapCdf.size(), 129u);
    for (std::size_t i = 1; i < r.gapCdf.size(); ++i)
        EXPECT_GE(r.gapCdf[i], r.gapCdf[i - 1]);
    EXPECT_LE(r.gapCdf.back(), 1.0);

    EXPECT_GT(r.scalar("retired"), 0.0);
    EXPECT_THROW(r.scalar("not-a-stat"), FatalError);
}

TEST(Experiment, RunOnceIsDeterministic)
{
    RunSpec spec;
    spec.workload = resolveWorkload("gcc");
    spec.totalOps = 10000;
    spec.warmupOps = 2000;
    RunResult a = runOnce(spec);
    RunResult b = runOnce(spec);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Experiment, SpeedupIsAnIpcRatio)
{
    RunResult fast;
    fast.ipc = 2.0;
    RunResult slow;
    slow.ipc = 1.0;
    EXPECT_DOUBLE_EQ(speedup(fast, slow), 2.0);
    RunResult zero;
    EXPECT_THROW(speedup(fast, zero), FatalError);
}

TEST(Experiment, SmtRunSplitsOps)
{
    RunSpec spec;
    spec.workload = resolveWorkload("m88-comp");
    spec.totalOps = 12000;
    spec.warmupOps = 4000;
    RunResult r = runOnce(spec);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_LE(r.retired, 12000u);
}

TEST(Figures, Figure6ShapeMatchesThePaper)
{
    FigureData fig = figure6(40000, {"turb3d"});
    ASSERT_EQ(fig.columns.size(), 1u);
    ASSERT_EQ(fig.rowLabels.size(), 65u);
    const auto &cdf = fig.columns[0].values;
    // Monotone, ends high.
    for (std::size_t i = 1; i < cdf.size(); ++i)
        EXPECT_GE(cdf[i], cdf[i - 1]);
    // The paper's headline observations: the 9-cycle forwarding buffer
    // covers only about half of all instructions, and a quarter still
    // wait at 25 cycles.
    EXPECT_GT(cdf[9], 0.40);
    EXPECT_LT(cdf[9], 0.80);
    EXPECT_LT(cdf[25], 0.90);
}

TEST(Figures, AblationDriversRunOnTinyInputs)
{
    std::vector<std::string> w{"m88ksim"};
    FigureData recovery = ablationLoadRecovery(6000, w);
    EXPECT_EQ(recovery.columns.size(), 3u);
    ASSERT_EQ(recovery.columns[0].values.size(), 1u);
    EXPECT_DOUBLE_EQ(recovery.columns[0].values[0], 1.0); // self-relative

    FigureData shadow = ablationKillShadow(6000, w);
    EXPECT_EQ(shadow.columns.size(), 2u);

    FigureData bits = ablationInsertionBits(6000, w);
    EXPECT_EQ(bits.columns.size(), 3u);
    for (const auto &col : bits.columns)
        EXPECT_LE(col.values[0], 1.0);
}

TEST(Figures, SweepRunsWorkloadMajorWithHeadersFromTheFirstRow)
{
    // At 500 ops turb3d's measured window on the 3_9 reference machine
    // is empty, so its reference cell fails; go's cells all retire ops.
    Config ref;
    Config test;
    setPipeline(ref, 3, 9);
    setPipeline(test, 5, 7);

    std::vector<std::string> planLabels;
    auto labelled = [&planLabels](const Config &cfg, std::string tag) {
        return SweepCell{cfg, [&planLabels, tag](const Workload &row) {
                             planLabels.push_back(row.label + "/" + tag);
                             return planLabels.back();
                         }};
    };
    std::vector<std::string> cellOrder;
    unsigned headerCalls = 0;
    SweepSpec sweep{"sweep", "speedup",
                    {labelled(ref, "ref"), labelled(test, "test")},
                    {}};
    sweep.columns.push_back(SweepColumn{
        [&headerCalls](SweepRow first) {
            ++headerCalls;
            return first[0].workloadLabel + " " + first[1].pipeLabel;
        },
        [](SweepRow row) {
            return row[0].failed ? failPoint(row[0].failKind) : 1.0;
        }});
    sweep.columns.push_back(sweepColumn(
        "speedup", [](SweepRow row) { return speedup(row[1], row[0]); }));
    sweep.columns.push_back(sweepColumn("order", [&cellOrder](SweepRow row) {
        for (const RunResult &r : row)
            cellOrder.push_back(r.workloadLabel);
        return 0.0;
    }));

    const FigureData fig = runSweep(
        sweep, {resolveWorkload("turb3d"), resolveWorkload("go")}, 500);

    EXPECT_EQ(planLabels,
              (std::vector<std::string>{"turb3d/ref", "turb3d/test",
                                        "go/ref", "go/test"}));
    EXPECT_EQ(cellOrder,
              (std::vector<std::string>{"turb3d", "turb3d", "go", "go"}));
    EXPECT_EQ(fig.rowLabels, (std::vector<std::string>{"turb3d", "go"}));
    ASSERT_EQ(fig.columns.size(), 3u);
    EXPECT_EQ(headerCalls, 1u);
    EXPECT_EQ(fig.columns[0].label, "turb3d 5_7");
    EXPECT_EQ(fig.columns[1].label, "speedup");

    // turb3d's failed reference renders as its fail point in every
    // column computed from it; go's row stays numeric.
    for (std::size_t c = 0; c < 2; ++c) {
        ASSERT_EQ(fig.columns[c].values.size(), 2u);
        EXPECT_EQ(pointFailKind(fig.columns[c].values[0]), FailKind::Sim);
        EXPECT_TRUE(std::isfinite(fig.columns[c].values[1]));
    }
    EXPECT_DOUBLE_EQ(fig.columns[0].values[1], 1.0);
    ASSERT_FALSE(fig.failures.empty());
    EXPECT_EQ(fig.failures[0].rfind("turb3d [3_9]: ", 0), 0u);

    // No rows: no first row to head the columns with.
    const FigureData empty = runSweep(sweep, {}, 500);
    EXPECT_TRUE(empty.rowLabels.empty());
    EXPECT_TRUE(empty.columns.empty());
}

TEST(Report, PrintFigureAlignsAndFormats)
{
    FigureData fig;
    fig.title = "A Test Figure";
    fig.valueUnit = "speedup";
    fig.rowLabels = {"alpha", "beta"};
    fig.columns.push_back(Series{"c1", {1.0, 0.954}});
    fig.columns.push_back(Series{"c2", {1.104, 0.5}});

    std::ostringstream os;
    printFigure(os, fig);
    std::string text = os.str();
    EXPECT_NE(text.find("A Test Figure"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("95.4%"), std::string::npos);
    EXPECT_NE(text.find("110.4%"), std::string::npos);

    std::ostringstream os2;
    printFigure(os2, fig, ValueFormat::Ratio);
    EXPECT_NE(os2.str().find("0.954"), std::string::npos);
}

TEST(Report, PrintFigureHandlesShortColumns)
{
    FigureData fig;
    fig.title = "Ragged";
    fig.rowLabels = {"a", "b"};
    fig.columns.push_back(Series{"c1", {1.0}}); // missing row b
    std::ostringstream os;
    printFigure(os, fig);
    EXPECT_NE(os.str().find("-"), std::string::npos);
}

TEST(Report, CsvOutput)
{
    FigureData fig;
    fig.title = "CSV";
    fig.rowLabels = {"r1"};
    fig.columns.push_back(Series{"a", {0.25}});
    fig.columns.push_back(Series{"b", {0.5}});
    std::ostringstream os;
    printCsv(os, fig);
    EXPECT_EQ(os.str(), "label,a,b\nr1,0.250000,0.500000\n");
}
