/**
 * @file
 * Tests for benchmark profiles, workload resolution, and the micro-op
 * model.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "workload/micro_op.hh"
#include "workload/profile.hh"
#include "workload/workload_set.hh"

using namespace loopsim;

TEST(MicroOp, ClassPredicates)
{
    MicroOp op;
    op.opClass = OpClass::Load;
    EXPECT_TRUE(op.isLoad());
    EXPECT_FALSE(op.isStore());
    EXPECT_FALSE(op.isBranch());
    op.opClass = OpClass::BranchCond;
    EXPECT_TRUE(op.isBranch());
    EXPECT_TRUE(op.isCondBranch());
    op.opClass = OpClass::BranchUncond;
    EXPECT_TRUE(op.isBranch());
    EXPECT_FALSE(op.isCondBranch());
}

TEST(MicroOp, SourceAndDestCounting)
{
    MicroOp op;
    EXPECT_EQ(op.numSrcs(), 0u);
    EXPECT_FALSE(op.hasDest());
    op.src[0] = 3;
    EXPECT_EQ(op.numSrcs(), 1u);
    op.src[1] = 4;
    EXPECT_EQ(op.numSrcs(), 2u);
    op.dest = 9;
    EXPECT_TRUE(op.hasDest());
}

TEST(MicroOp, ClassNamesAndLatencies)
{
    for (std::size_t i = 0; i < numOpClasses; ++i) {
        OpClass cls = static_cast<OpClass>(i);
        EXPECT_NE(opClassName(cls), nullptr);
        EXPECT_GE(opClassLatency(cls), 1u);
    }
    EXPECT_EQ(opClassLatency(OpClass::IntAlu), 1u);
    EXPECT_GT(opClassLatency(OpClass::FpDiv),
              opClassLatency(OpClass::FpAdd));
}

TEST(MicroOp, ToStringMentionsKeyFields)
{
    MicroOp op;
    op.seq = 12;
    op.opClass = OpClass::Load;
    op.dest = 5;
    op.src[0] = 7;
    op.effAddr = 0xabc;
    std::string s = op.toString();
    EXPECT_NE(s.find("#12"), std::string::npos);
    EXPECT_NE(s.find("Load"), std::string::npos);
    EXPECT_NE(s.find("d=r5"), std::string::npos);
    EXPECT_NE(s.find("s0=r7"), std::string::npos);
}

TEST(Profile, AllSpec95ProfilesValidate)
{
    for (const auto &name : spec95Names()) {
        BenchmarkProfile p = spec95Profile(name);
        EXPECT_NO_THROW(p.validate()) << name;
        EXPECT_EQ(p.name, name);
    }
    EXPECT_EQ(spec95Names().size(), 10u);
}

TEST(Profile, ShortAliasesResolve)
{
    EXPECT_EQ(spec95Profile("comp").name, "compress");
    EXPECT_EQ(spec95Profile("m88").name, "m88ksim");
    EXPECT_EQ(spec95Profile("hydro").name, "hydro2d");
    EXPECT_EQ(spec95Profile("SWIM").name, "swim"); // case-insensitive
}

TEST(Profile, UnknownNameFatal)
{
    EXPECT_THROW(spec95Profile("doom"), FatalError);
}

TEST(Profile, ValidationCatchesBadValues)
{
    BenchmarkProfile p = spec95Profile("swim");
    p.loadFrac = 1.5;
    EXPECT_THROW(p.validate(), FatalError);

    p = spec95Profile("swim");
    p.loadFrac = 0.8;
    p.storeFrac = 0.5; // mix > 1
    EXPECT_THROW(p.validate(), FatalError);

    p = spec95Profile("swim");
    p.depDistWeights = {1, 2, 3}; // wrong length
    EXPECT_THROW(p.validate(), FatalError);

    p = spec95Profile("swim");
    p.l2ResidentFrac = 0.7;
    p.farFrac = 0.5;
    EXPECT_THROW(p.validate(), FatalError);

    p = spec95Profile("swim");
    p.hotRegCount = 9;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Profile, CalibrationShape)
{
    // The cross-benchmark ordering the paper's analysis rests on.
    auto comp = spec95Profile("compress");
    auto m88 = spec95Profile("m88ksim");
    auto go = spec95Profile("go");
    auto swim = spec95Profile("swim");
    auto hydro = spec95Profile("hydro2d");
    auto apsi = spec95Profile("apsi");

    // Integer codes are branchier and less predictable than m88ksim.
    EXPECT_GT(comp.condBranchFrac, m88.condBranchFrac);
    EXPECT_GT(go.mispredictRate, m88.mispredictRate);
    // swim misses into the L2; hydro2d misses into memory.
    EXPECT_GT(swim.l2ResidentFrac, hydro.l2ResidentFrac);
    EXPECT_GT(hydro.farFrac, swim.farFrac);
    // apsi is the serial-chain, high-fan-out program.
    EXPECT_GT(apsi.serialChainFrac, 0.5);
    EXPECT_GT(apsi.hotSrcFrac, 0.0);
    EXPECT_DOUBLE_EQ(swim.serialChainFrac, 0.0);
}

TEST(WorkloadSet, SingleBenchmarks)
{
    Workload w = resolveWorkload("gcc");
    EXPECT_EQ(w.threads.size(), 1u);
    EXPECT_FALSE(w.multiThreaded());
    EXPECT_EQ(w.threads[0].name, "gcc");
}

TEST(WorkloadSet, PaperPairs)
{
    Workload w = resolveWorkload("m88-comp");
    ASSERT_EQ(w.threads.size(), 2u);
    EXPECT_TRUE(w.multiThreaded());
    EXPECT_EQ(w.threads[0].name, "m88ksim");
    EXPECT_EQ(w.threads[1].name, "compress");

    EXPECT_EQ(resolveWorkload("go-su2cor").threads[1].name, "su2cor");
    EXPECT_EQ(resolveWorkload("apsi-swim").threads[0].name, "apsi");
}

TEST(WorkloadSet, GenericPairs)
{
    Workload w = resolveWorkload("swim-gcc");
    ASSERT_EQ(w.threads.size(), 2u);
    EXPECT_EQ(w.threads[0].name, "swim");
    EXPECT_EQ(w.threads[1].name, "gcc");
}

TEST(WorkloadSet, UnresolvableFatal)
{
    EXPECT_THROW(resolveWorkload("swim-doom"), FatalError);
    EXPECT_THROW(resolveWorkload(""), FatalError);
}

TEST(WorkloadSet, FigureWorkloadsMatchPaperOrder)
{
    const auto &all = figureWorkloads();
    ASSERT_EQ(all.size(), 13u);
    EXPECT_EQ(figureLabel(all[0]), "comp");
    EXPECT_EQ(figureLabel(all[3]), "m88");
    EXPECT_EQ(figureLabel(all[5]), "hydro");
    EXPECT_EQ(figureLabel(all[9]), "turb3d");
    EXPECT_EQ(figureLabel(all[10]), "m88-comp");
    EXPECT_EQ(figureLabel(all[12]), "apsi-swim");
    for (std::size_t i = 10; i < 13; ++i)
        EXPECT_TRUE(all[i].multiThreaded());
}
