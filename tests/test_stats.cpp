/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/logging.hh"
#include "stats/statistics.hh"

using namespace loopsim;
using namespace loopsim::stats;

TEST(ScalarStat, AccumulatesAndResets)
{
    StatGroup sg;
    Scalar &s = sg.newScalar("count", "a counter");
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(AverageStat, MeanOfSamples)
{
    StatGroup sg;
    Average &a = sg.newAverage("avg", "an average");
    EXPECT_DOUBLE_EQ(a.value(), 0.0); // no samples
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.value(), 4.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 12.0);
    a.reset();
    EXPECT_EQ(a.samples(), 0u);
}

TEST(VectorStat, BinsAndFractions)
{
    StatGroup sg;
    Vector &v = sg.newVector("v", "bins", {"a", "b", "c"});
    v.add(0, 1.0);
    v.add(1, 3.0);
    v.add(1);
    EXPECT_DOUBLE_EQ(v.bin(0), 1.0);
    EXPECT_DOUBLE_EQ(v.bin(1), 4.0);
    EXPECT_DOUBLE_EQ(v.bin(2), 0.0);
    EXPECT_DOUBLE_EQ(v.value(), 5.0);
    EXPECT_DOUBLE_EQ(v.fraction(1), 0.8);
    EXPECT_EQ(v.binName(2), "c");
    EXPECT_THROW(v.add(3), PanicError);
    v.reset();
    EXPECT_DOUBLE_EQ(v.value(), 0.0);
    EXPECT_DOUBLE_EQ(v.fraction(0), 0.0); // no division by zero
}

TEST(VectorStat, EmptyBinListPanics)
{
    StatGroup sg;
    EXPECT_THROW(sg.newVector("bad", "x", {}), PanicError);
}

TEST(DistributionStat, BucketsAndMoments)
{
    StatGroup sg;
    Distribution &d = sg.newDistribution("d", "dist", 0, 10, 2);
    EXPECT_EQ(d.numBuckets(), 5u);
    d.sample(0);
    d.sample(1);
    d.sample(5);
    d.sample(9.5);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.bucketCount(0), 2u); // [0,2)
    EXPECT_EQ(d.bucketCount(2), 1u); // [4,6)
    EXPECT_EQ(d.bucketCount(4), 1u); // [8,10)
    EXPECT_DOUBLE_EQ(d.minSample(), 0.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 9.5);
    EXPECT_NEAR(d.mean(), 15.5 / 4, 1e-12);
}

TEST(DistributionStat, UnderAndOverflow)
{
    StatGroup sg;
    Distribution &d = sg.newDistribution("d", "dist", 10, 20, 5);
    d.sample(5);
    d.sample(25);
    d.sample(12);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.samples(), 3u);
}

TEST(DistributionStat, WeightedSamples)
{
    StatGroup sg;
    Distribution &d = sg.newDistribution("d", "dist", 0, 10, 1);
    d.sample(3, 7);
    EXPECT_EQ(d.samples(), 7u);
    EXPECT_EQ(d.bucketCount(3), 7u);
}

TEST(DistributionStat, Cdf)
{
    StatGroup sg;
    Distribution &d = sg.newDistribution("d", "dist", 0, 100, 1);
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
    StatGroup sg;
    Distribution &d = sg.newDistribution("d", "dist", 0, 10, 1);
    EXPECT_DOUBLE_EQ(d.cdf(5), 0.0);
}

TEST(DistributionStat, BadParamsPanic)
{
    StatGroup sg;
    EXPECT_THROW(sg.newDistribution("a", "x", 0, 10, 0), PanicError);
    EXPECT_THROW(sg.newDistribution("b", "x", 10, 10, 1), PanicError);
}

TEST(StatGroup, NamesAndLookup)
{
    StatGroup sg("core");
    Scalar &s = sg.newScalar("cycles", "c");
    s += 10;
    EXPECT_EQ(s.name(), "core.cycles");
    EXPECT_DOUBLE_EQ(sg.lookupValue("cycles"), 10.0);
    EXPECT_DOUBLE_EQ(sg.lookupValue("core.cycles"), 10.0);
    EXPECT_EQ(sg.find("nope"), nullptr);
    EXPECT_THROW(sg.lookupValue("nope"), FatalError);
}

TEST(StatGroup, DuplicateRegistrationFatal)
{
    StatGroup sg;
    sg.newScalar("x", "first");
    EXPECT_THROW(sg.newScalar("x", "second"), FatalError);
}

TEST(StatGroup, ResetAllAndDump)
{
    StatGroup sg("g");
    Scalar &s = sg.newScalar("s", "scalar stat");
    Average &a = sg.newAverage("a", "average stat");
    s += 5;
    a.sample(3);
    sg.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(a.samples(), 0u);

    s += 2;
    std::ostringstream os;
    sg.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("g.s"), std::string::npos);
    EXPECT_NE(text.find("scalar stat"), std::string::npos);
    EXPECT_NE(text.find("g.a"), std::string::npos);
}
