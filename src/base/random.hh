/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (synthetic workloads, random
 * replacement, tie-breaking) draws from Pcg32 streams seeded explicitly,
 * so a run is exactly reproducible from its configuration.
 */

#ifndef LOOPSIM_BASE_RANDOM_HH
#define LOOPSIM_BASE_RANDOM_HH

#include <cstdint>
#include <vector>

namespace loopsim
{

/**
 * PCG32 generator (O'Neill 2014, pcg32_random_r). Small, fast, and of far
 * better statistical quality than an LCG; a single 64-bit state plus a
 * stream-selection constant.
 */
class Pcg32
{
  public:
    using result_type = std::uint32_t;

    /** Construct a generator for @p seed on stream @p stream. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit output. */
    std::uint32_t next();

    std::uint32_t operator()() { return next(); }

    static constexpr std::uint32_t min() { return 0; }
    static constexpr std::uint32_t max() { return 0xffffffffu; }

    /** Uniform integer in [0, bound) with Lemire rejection (unbiased). */
    std::uint32_t nextBounded(std::uint32_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw: true with probability @p p (clamped to [0,1]). */
    bool chance(double p);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /**
     * Geometric-ish draw: number of failures before a success with
     * success probability @p p, capped at @p cap.
     */
    std::uint32_t geometric(double p, std::uint32_t cap);

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

/**
 * A discrete distribution over arbitrary weights, sampled by counting
 * the cumulative weights at or below a uniform draw. On the small
 * tables the trace generator uses, a branch-free count beats a binary
 * search, whose branches mispredict on random draws.
 */
class DiscreteDistribution
{
  public:
    DiscreteDistribution() = default;

    /** Build from (possibly unnormalised) non-negative weights. */
    explicit DiscreteDistribution(const std::vector<double> &weights);

    /** Sample an index in [0, size()). */
    std::size_t sample(Pcg32 &rng) const;

    std::size_t size() const { return cumulative.size(); }
    bool empty() const { return cumulative.empty(); }

  private:
    std::vector<double> cumulative;
};

} // namespace loopsim

#endif // LOOPSIM_BASE_RANDOM_HH
