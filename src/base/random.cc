#include "base/random.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace loopsim
{

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state(0), inc((stream << 1u) | 1u)
{
    next();
    state += seed;
    next();
}

std::uint32_t
Pcg32::next()
{
    std::uint64_t old = state;
    state = old * 6364136223846793005ULL + inc;
    std::uint32_t xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((0u - rot) & 31u));
}

std::uint32_t
Pcg32::nextBounded(std::uint32_t bound)
{
    panic_if(bound == 0, "nextBounded(0) is undefined");
    // Lemire's nearly-divisionless unbiased method.
    std::uint64_t m = std::uint64_t(next()) * bound;
    std::uint32_t l = static_cast<std::uint32_t>(m);
    if (l < bound) {
        std::uint32_t t = (0u - bound) % bound;
        while (l < t) {
            m = std::uint64_t(next()) * bound;
            l = static_cast<std::uint32_t>(m);
        }
    }
    return static_cast<std::uint32_t>(m >> 32);
}

double
Pcg32::nextDouble()
{
    return next() * (1.0 / 4294967296.0);
}

bool
Pcg32::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Pcg32::range(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "range(lo > hi)");
    std::uint64_t span = hi - lo + 1;
    if (span == 0) {
        // Full 64-bit range: compose two 32-bit draws.
        return (std::uint64_t(next()) << 32) | next();
    }
    if (span <= 0xffffffffULL)
        return lo + nextBounded(static_cast<std::uint32_t>(span));
    // Wide span: rejection over two words.
    std::uint64_t mask = ~0ULL >> __builtin_clzll(span | 1);
    std::uint64_t draw;
    do {
        draw = ((std::uint64_t(next()) << 32) | next()) & mask;
    } while (draw >= span);
    return lo + draw;
}

std::uint32_t
Pcg32::geometric(double p, std::uint32_t cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    std::uint32_t n = 0;
    while (n < cap && !chance(p))
        ++n;
    return n;
}

DiscreteDistribution::DiscreteDistribution(const std::vector<double> &weights)
{
    cumulative.reserve(weights.size());
    double sum = 0.0;
    for (double w : weights) {
        panic_if(w < 0.0, "negative weight in DiscreteDistribution");
        sum += w;
        cumulative.push_back(sum);
    }
    panic_if(!cumulative.empty() && sum <= 0.0,
             "DiscreteDistribution with all-zero weights");
}

std::size_t
DiscreteDistribution::sample(Pcg32 &rng) const
{
    panic_if(cumulative.empty(), "sampling an empty distribution");
    double total = cumulative.back();
    double u = rng.nextDouble() * total;
    // The table is non-decreasing, so the number of entries <= u is
    // exactly std::upper_bound's index; counting it has no branch to
    // mispredict on a random u.
    std::size_t idx = 0;
    for (double c : cumulative)
        idx += c <= u;
    return std::min(idx, cumulative.size() - 1);
}

} // namespace loopsim
