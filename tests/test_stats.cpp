/**
 * @file
 * Unit tests for the statistic types and the core's measured-window reset.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "core_test_util.hh"
#include "stats/statistics.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::stats;
using namespace loopsim::testutil;

TEST(ScalarStat, AccumulatesAndResets)
{
    Scalar s;
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s = Scalar{};
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(AverageStat, MeanOfSamples)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.value(), 0.0); // no samples
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.value(), 4.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 12.0);
    a = Average{};
    EXPECT_EQ(a.samples(), 0u);
}

TEST(VectorStat, BinsAndFractions)
{
    Vector v(3);
    v.add(0, 1.0);
    v.add(1, 3.0);
    v.add(1);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v.bin(0), 1.0);
    EXPECT_DOUBLE_EQ(v.bin(1), 4.0);
    EXPECT_DOUBLE_EQ(v.bin(2), 0.0);
    EXPECT_DOUBLE_EQ(v.value(), 5.0);
    EXPECT_DOUBLE_EQ(v.fraction(1), 0.8);
    EXPECT_THROW(v.add(3), PanicError);
    v = Vector(3);
    EXPECT_DOUBLE_EQ(v.value(), 0.0);
    EXPECT_DOUBLE_EQ(v.fraction(0), 0.0); // no division by zero
}

TEST(VectorStat, EmptyBinListPanics)
{
    EXPECT_THROW(Vector(0), PanicError);
}

TEST(DistributionStat, BucketsAndMoments)
{
    Distribution d(0, 10, 2);
    d.sample(0);
    d.sample(1);
    d.sample(5);
    d.sample(9.5);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.bucketCount(0), 2u); // [0,2)
    EXPECT_EQ(d.bucketCount(2), 1u); // [4,6)
    EXPECT_EQ(d.bucketCount(4), 1u); // [8,10), the last of 5 buckets
    EXPECT_THROW(d.bucketCount(5), PanicError);
    EXPECT_DOUBLE_EQ(d.cdf(1), 0.5);
    EXPECT_DOUBLE_EQ(d.cdf(9), 1.0);
}

TEST(DistributionStat, UnderAndOverflow)
{
    Distribution d(10, 20, 5);
    d.sample(5); // underflow: below every bucket, counted from lo on
    EXPECT_DOUBLE_EQ(d.cdf(10), 1.0);
    d.sample(25); // overflow: counted only from hi on
    EXPECT_DOUBLE_EQ(d.cdf(19), 0.5);
    EXPECT_DOUBLE_EQ(d.cdf(20), 1.0);
    d.sample(12);
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_DOUBLE_EQ(d.cdf(10), 2.0 / 3.0);
}

TEST(DistributionStat, WeightedSamples)
{
    Distribution d(0, 10, 1);
    d.sample(3, 7);
    EXPECT_EQ(d.samples(), 7u);
    EXPECT_EQ(d.bucketCount(3), 7u);
}

TEST(DistributionStat, Cdf)
{
    Distribution d(0, 100, 1);
    for (int i = 0; i < 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.cdf(-1), 0.0);
    EXPECT_NEAR(d.cdf(0), 0.01, 1e-9);
    EXPECT_NEAR(d.cdf(49), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(d.cdf(99), 1.0);
    EXPECT_DOUBLE_EQ(d.cdf(1000), 1.0);
}

TEST(DistributionStat, CdfEmptyIsZero)
{
    Distribution d(0, 10, 1);
    EXPECT_DOUBLE_EQ(d.cdf(5), 0.0);
}

TEST(DistributionStat, BadParamsPanic)
{
    EXPECT_THROW(Distribution(0, 10, 0), PanicError);
    EXPECT_THROW(Distribution(10, 10, 1), PanicError);
}

TEST(CoreStats, BeginMeasurementZeroesEveryStatistic)
{
    // Two-source ALU ops (operand sources, gap samples), loads that
    // miss, and mispredicted branches: every kind of statistic moves.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 400; ++i) {
        const auto r = static_cast<ArchReg>(1 + i % 8);
        const auto s = static_cast<ArchReg>(1 + (i + 5) % 8);
        ops.push_back(i % 25 == 10   ? load(r, r, 0x5000000 + 4096 * i)
                      : i % 25 == 20 ? branch(r, true, /*mispredict=*/true)
                                     : alu(r, r, s));
    }
    auto h = makeHarness(ops);
    Core &core = *h.core;
    h.sim.add(&core);

    h.sim.run(200);
    ASSERT_FALSE(core.done());
    ASSERT_GT(h.stat("cycles"), 0.0);
    ASSERT_GT(h.stat("retired"), 0.0);
    ASSERT_GT(core.operandSourceStat().value(), 0.0);
    ASSERT_GT(core.operandGapStat().samples(), 0u);

    core.beginMeasurement();
    for (const auto &[name, stat] : core.exportedStats())
        EXPECT_EQ(stat->value(), 0.0) << name;
    const Vector &sources = core.operandSourceStat();
    for (std::size_t i = 0; i < sources.size(); ++i)
        EXPECT_EQ(sources.bin(i), 0.0) << "operand-source bin " << i;
    EXPECT_EQ(core.operandGapStat().samples(), 0u);
    EXPECT_EQ(core.cyclesRun(), 0u);

    h.sim.run(150);
    EXPECT_GT(core.cyclesRun(), 0u);
    EXPECT_EQ(h.stat("cycles"), static_cast<double>(core.cyclesRun()));
    EXPECT_GT(h.stat("retired"), 0.0);
}
