/**
 * @file
 * Unit tests for the deterministic RNG and discrete distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"

using namespace loopsim;

TEST(Pcg32, SameSeedSameStream)
{
    Pcg32 a(42, 7);
    Pcg32 b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiverge)
{
    Pcg32 a(42, 7);
    Pcg32 b(43, 7);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiverge)
{
    Pcg32 a(42, 1);
    Pcg32 b(42, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BoundedStaysInBounds)
{
    Pcg32 rng(1);
    for (std::uint32_t bound : {1u, 2u, 3u, 17u, 1000u}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Pcg32, BoundedIsRoughlyUniform)
{
    Pcg32 rng(99);
    std::vector<int> counts(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBounded(8)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 * 0.9);
        EXPECT_LT(c, n / 8 * 1.1);
    }
}

TEST(Pcg32, BoundedZeroPanics)
{
    Pcg32 rng(1);
    EXPECT_THROW(rng.nextBounded(0), PanicError);
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(5);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Pcg32, ChanceExtremes)
{
    Pcg32 rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Pcg32, ChanceTracksProbability)
{
    Pcg32 rng(7);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Pcg32, RangeInclusive)
{
    Pcg32 rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        saw_lo |= v == 10;
        saw_hi |= v == 13;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, RangeSingleton)
{
    Pcg32 rng(11);
    EXPECT_EQ(rng.range(5, 5), 5u);
}

TEST(Pcg32, RangeBackwardsPanics)
{
    Pcg32 rng(11);
    EXPECT_THROW(rng.range(6, 5), PanicError);
}

TEST(Pcg32, RangeWide)
{
    Pcg32 rng(13);
    std::uint64_t lo = 1ULL << 40;
    std::uint64_t hi = (1ULL << 40) + (1ULL << 36);
    for (int i = 0; i < 200; ++i) {
        auto v = rng.range(lo, hi);
        EXPECT_GE(v, lo);
        EXPECT_LE(v, hi);
    }
}

TEST(Pcg32, GeometricRespectsCap)
{
    Pcg32 rng(17);
    for (int i = 0; i < 500; ++i)
        EXPECT_LE(rng.geometric(0.01, 7), 7u);
    EXPECT_EQ(rng.geometric(1.0, 100), 0u);
    EXPECT_EQ(rng.geometric(0.0, 9), 9u);
}

TEST(DiscreteDistribution, SamplesTrackWeights)
{
    Pcg32 rng(23);
    DiscreteDistribution dist({1.0, 3.0, 6.0});
    std::vector<int> counts(3, 0);
    const int n = 60000;
    for (int i = 0; i < n; ++i)
        ++counts[dist.sample(rng)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
    EXPECT_NEAR(counts[2] / double(n), 0.6, 0.02);
}

TEST(DiscreteDistribution, ZeroWeightNeverSampled)
{
    Pcg32 rng(29);
    DiscreteDistribution dist({1.0, 0.0, 1.0});
    for (int i = 0; i < 5000; ++i)
        EXPECT_NE(dist.sample(rng), 1u);
}

TEST(DiscreteDistribution, SampleIsUpperBoundIndex)
{
    // sample() must pick exactly the bucket a binary search over the
    // cumulative table picks, for the same draw: replay each draw on a
    // copy of the generator. Tables mix in zero weights, leading and
    // trailing ones included.
    Pcg32 shape(37);
    Pcg32 rng(41);
    for (int table = 0; table < 200; ++table) {
        std::size_t n = shape.range(1, 20);
        std::vector<double> weights(n);
        for (double &w : weights)
            w = shape.chance(0.3) ? 0.0 : shape.nextDouble() * 10.0;
        if (shape.chance(0.3))
            weights.front() = 0.0;
        if (shape.chance(0.3))
            weights.back() = 0.0;
        weights[shape.nextBounded(static_cast<std::uint32_t>(n))] += 1.0;
        std::vector<double> cumulative;
        double sum = 0.0;
        for (double w : weights)
            cumulative.push_back(sum += w);

        DiscreteDistribution dist(weights);
        for (int i = 0; i < 500; ++i) {
            Pcg32 copy = rng;
            double u = copy.nextDouble() * cumulative.back();
            auto it = std::upper_bound(cumulative.begin(),
                                       cumulative.end(), u);
            if (it == cumulative.end())
                --it;
            std::size_t expected =
                static_cast<std::size_t>(it - cumulative.begin());
            ASSERT_EQ(dist.sample(rng), expected)
                << "table " << table << " draw " << i;
        }
    }
}

TEST(DiscreteDistribution, SingleBucket)
{
    Pcg32 rng(31);
    DiscreteDistribution dist({2.5});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dist.sample(rng), 0u);
}

TEST(DiscreteDistribution, EmptySamplePanics)
{
    Pcg32 rng(31);
    DiscreteDistribution dist;
    EXPECT_TRUE(dist.empty());
    EXPECT_THROW(dist.sample(rng), PanicError);
}

TEST(DiscreteDistribution, NegativeWeightPanics)
{
    EXPECT_THROW(DiscreteDistribution({1.0, -0.1}), PanicError);
}

TEST(DiscreteDistribution, AllZeroWeightsPanics)
{
    EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), PanicError);
}
