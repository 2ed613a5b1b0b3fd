/**
 * @file
 * Tests for the synthetic trace generator: determinism, calibration of
 * the emitted stream against its profile, dependence structure, and
 * wrong-path isolation. Statistical checks use wide tolerances so they
 * are robust to seed changes but still catch calibration regressions.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "base/logging.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace loopsim;

namespace
{

std::vector<MicroOp>
drain(SyntheticTraceGenerator &gen)
{
    std::vector<MicroOp> ops;
    MicroOp op;
    while (gen.next(op))
        ops.push_back(op);
    return ops;
}

} // anonymous namespace

TEST(Generator, ProducesExactlyRequestedLength)
{
    SyntheticTraceGenerator gen(spec95Profile("gcc"), 0, 1234);
    auto ops = drain(gen);
    EXPECT_EQ(ops.size(), 1234u);
    MicroOp op;
    EXPECT_FALSE(gen.next(op)); // stays exhausted
}

TEST(Generator, SequenceNumbersAreDense)
{
    SyntheticTraceGenerator gen(spec95Profile("swim"), 0, 500);
    auto ops = drain(gen);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(ops[i].seq, i);
        EXPECT_EQ(ops[i].tid, 0);
        EXPECT_FALSE(ops[i].wrongPath);
    }
}

TEST(Generator, ResetReproducesIdenticalStream)
{
    // Two generators built with the same arguments give the same
    // stream: it is a pure function of them.
    SyntheticTraceGenerator gen(spec95Profile("turb3d"), 0, 2000);
    SyntheticTraceGenerator again(spec95Profile("turb3d"), 0, 2000);
    auto first = drain(gen);
    auto second = drain(again);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].pc, second[i].pc);
        EXPECT_EQ(first[i].opClass, second[i].opClass);
        EXPECT_EQ(first[i].src[0], second[i].src[0]);
        EXPECT_EQ(first[i].src[1], second[i].src[1]);
        EXPECT_EQ(first[i].dest, second[i].dest);
        EXPECT_EQ(first[i].effAddr, second[i].effAddr);
        EXPECT_EQ(first[i].taken, second[i].taken);
        EXPECT_EQ(first[i].forceMispredict, second[i].forceMispredict);
    }
}

TEST(Generator, WrongPathDoesNotPerturbMainStream)
{
    SyntheticTraceGenerator a(spec95Profile("gcc"), 0, 2000);
    SyntheticTraceGenerator b(spec95Profile("gcc"), 0, 2000);
    MicroOp op;
    MicroOp wp;
    for (int i = 0; i < 2000; ++i) {
        // Interleave wrong-path requests into b only.
        if (i % 7 == 0) {
            for (int j = 0; j < 5; ++j)
                b.nextWrongPath(wp, i);
        }
        MicroOp oa;
        MicroOp ob;
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.opClass, ob.opClass);
        EXPECT_EQ(oa.src[0], ob.src[0]);
        EXPECT_EQ(oa.effAddr, ob.effAddr);
        EXPECT_EQ(oa.forceMispredict, ob.forceMispredict);
    }
    (void)op;
}

TEST(Generator, WrongPathOpsAreMarked)
{
    SyntheticTraceGenerator gen(spec95Profile("gcc"), 2, 100);
    MicroOp wp;
    for (int i = 0; i < 50; ++i) {
        gen.nextWrongPath(wp, 10);
        EXPECT_TRUE(wp.wrongPath);
        EXPECT_EQ(wp.tid, 2);
        EXPECT_FALSE(wp.forceMispredict);
    }
}

TEST(Generator, WrongPathDeterministicPerResumePoint)
{
    SyntheticTraceGenerator a(spec95Profile("gcc"), 0, 100);
    SyntheticTraceGenerator b(spec95Profile("gcc"), 0, 100);
    for (int round = 0; round < 3; ++round) {
        MicroOp wa;
        MicroOp wb;
        for (int i = 0; i < 20; ++i) {
            a.nextWrongPath(wa, 55);
            b.nextWrongPath(wb, 55);
            EXPECT_EQ(wa.opClass, wb.opClass);
            EXPECT_EQ(wa.src[0], wb.src[0]);
        }
    }
}

TEST(Generator, StaticCodeIsStableAcrossLoopIterations)
{
    BenchmarkProfile p = spec95Profile("compress");
    p.codeLoopLength = 64;
    SyntheticTraceGenerator gen(p, 0, 64 * 10);
    auto ops = drain(gen);
    // Same pc => same op class on every loop iteration.
    std::map<Addr, OpClass> code;
    for (const auto &op : ops) {
        auto it = code.find(op.pc);
        if (it == code.end())
            code[op.pc] = op.opClass;
        else
            EXPECT_EQ(it->second, op.opClass) << "pc " << op.pc;
    }
    EXPECT_EQ(code.size(), 64u);
}

TEST(Generator, MixTracksProfile)
{
    BenchmarkProfile p = spec95Profile("gcc");
    SyntheticTraceGenerator gen(p, 0, 60000);
    auto ops = drain(gen);
    std::map<OpClass, int> counts;
    for (const auto &op : ops)
        ++counts[op.opClass];
    double n = static_cast<double>(ops.size());
    EXPECT_NEAR(counts[OpClass::Load] / n, p.loadFrac, 0.02);
    EXPECT_NEAR(counts[OpClass::Store] / n, p.storeFrac, 0.02);
    EXPECT_NEAR(counts[OpClass::BranchCond] / n, p.condBranchFrac, 0.02);
    EXPECT_NEAR(counts[OpClass::BranchUncond] / n, p.uncondBranchFrac,
                0.01);
}

TEST(Generator, MispredictRateTracksProfile)
{
    BenchmarkProfile p = spec95Profile("go");
    SyntheticTraceGenerator gen(p, 0, 80000);
    auto ops = drain(gen);
    int branches = 0;
    int mispredicts = 0;
    for (const auto &op : ops) {
        if (op.isCondBranch()) {
            ++branches;
            mispredicts += op.forceMispredict ? 1 : 0;
        }
    }
    ASSERT_GT(branches, 1000);
    EXPECT_NEAR(double(mispredicts) / branches, p.mispredictRate, 0.02);
}

TEST(Generator, AddressesLandInTheRightRegions)
{
    BenchmarkProfile p = spec95Profile("swim");
    SyntheticTraceGenerator gen(p, 0, 50000);
    auto ops = drain(gen);
    std::uint64_t mem_ops = 0;
    std::uint64_t far = 0;
    std::uint64_t l2set = 0;
    std::uint64_t hot = 0;
    for (const auto &op : ops) {
        if (!op.isLoad() && !op.isStore())
            continue;
        ++mem_ops;
        Addr region = (op.effAddr >> 28) & 0xf;
        if (region == 0x2)
            ++hot;
        else if (region == 0x3)
            ++l2set;
        else if (region == 0x4)
            ++far;
        else
            FAIL() << "address outside known regions";
        EXPECT_EQ(op.effAddr % 8, 0u) << "unaligned access";
    }
    ASSERT_GT(mem_ops, 10000u);
    EXPECT_NEAR(double(far) / mem_ops, p.farFrac, 0.01);
    EXPECT_NEAR(double(l2set) / mem_ops, p.l2ResidentFrac, 0.02);
    EXPECT_NEAR(double(hot) / mem_ops,
                1.0 - p.farFrac - p.l2ResidentFrac, 0.02);
}

TEST(Generator, ThreadsGetDisjointAddressSpaces)
{
    SyntheticTraceGenerator g0(spec95Profile("swim"), 0, 1000);
    SyntheticTraceGenerator g1(spec95Profile("swim"), 1, 1000);
    auto o0 = drain(g0);
    auto o1 = drain(g1);
    Addr hi0 = 0;
    Addr lo1 = ~Addr(0);
    for (const auto &op : o0)
        if (op.isLoad() || op.isStore())
            hi0 = std::max(hi0, op.effAddr);
    for (const auto &op : o1)
        if (op.isLoad() || op.isStore())
            lo1 = std::min(lo1, op.effAddr);
    EXPECT_LT(hi0, lo1);
}

TEST(Generator, SerialChainLinksToPreviousProducer)
{
    BenchmarkProfile p = spec95Profile("apsi");
    p.serialChainFrac = 1.0;
    p.hotSrcFrac = 0.0;
    p.longLivedSrcFrac = 0.0;
    SyntheticTraceGenerator gen(p, 0, 5000);
    auto ops = drain(gen);
    ArchReg last_dest = invalidArchReg;
    std::uint64_t chained = 0;
    std::uint64_t chances = 0;
    for (const auto &op : ops) {
        if (op.numSrcs() > 0 && last_dest != invalidArchReg &&
            !op.isStore()) {
            ++chances;
            chained += op.src[0] == last_dest ? 1 : 0;
        }
        if (op.hasDest())
            last_dest = op.dest;
    }
    ASSERT_GT(chances, 1000u);
    EXPECT_GT(double(chained) / chances, 0.95);
}

TEST(Generator, GlobalRegistersAreReadButRarelyWritten)
{
    BenchmarkProfile p = spec95Profile("gcc");
    SyntheticTraceGenerator gen(p, 0, 40000);
    auto ops = drain(gen);
    std::uint64_t global_reads = 0;
    std::uint64_t global_writes = 0;
    std::uint64_t src_count = 0;
    for (const auto &op : ops) {
        for (ArchReg s : op.src) {
            if (s == invalidArchReg)
                continue;
            ++src_count;
            if (s >= RegLayout::globalBase)
                ++global_reads;
        }
        if (op.hasDest() && op.dest >= RegLayout::globalBase)
            ++global_writes;
    }
    EXPECT_NEAR(double(global_reads) / src_count, p.longLivedSrcFrac,
                0.03);
    // Globals are rewritten roughly once per 8k instructions.
    EXPECT_LT(global_writes, 12u);
    EXPECT_GE(global_writes, 4u);
}

TEST(Generator, EmptyTraceRequestFatal)
{
    EXPECT_THROW(
        { SyntheticTraceGenerator gen(spec95Profile("gcc"), 0, 0); },
        FatalError);
}
