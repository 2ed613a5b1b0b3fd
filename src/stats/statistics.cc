#include "stats/statistics.hh"

#include <cmath>

#include "base/logging.hh"

namespace loopsim::stats
{

Vector::Vector(std::size_t num_bins) : bins(num_bins, 0.0)
{
    panic_if(num_bins == 0, "stats::Vector needs at least one bin");
}

void
Vector::add(std::size_t bin, double v)
{
    panic_if(bin >= bins.size(), "stats::Vector bin out of range");
    bins[bin] += v;
}

double
Vector::bin(std::size_t i) const
{
    panic_if(i >= bins.size(), "stats::Vector bin out of range");
    return bins[i];
}

double
Vector::value() const
{
    double sum = 0.0;
    for (double b : bins)
        sum += b;
    return sum;
}

double
Vector::fraction(std::size_t i) const
{
    double total = value();
    return total > 0.0 ? bin(i) / total : 0.0;
}

Distribution::Distribution(double min, double max, double bucket_width)
    : lo(min), hi(max), width(bucket_width)
{
    panic_if(width <= 0.0, "Distribution bucket width must be positive");
    panic_if(hi <= lo, "Distribution range must be non-empty");
    auto n = static_cast<std::size_t>(std::ceil((hi - lo) / width));
    buckets.assign(n, 0);
}

void
Distribution::sample(double v, std::uint64_t n)
{
    count += n;
    if (v < lo) {
        underflow += n;
    } else if (v < hi) {
        auto idx = static_cast<std::size_t>((v - lo) / width);
        if (idx >= buckets.size())
            idx = buckets.size() - 1;
        buckets[idx] += n;
    }
}

std::uint64_t
Distribution::bucketCount(std::size_t i) const
{
    panic_if(i >= buckets.size(), "Distribution bucket out of range");
    return buckets[i];
}

double
Distribution::cdf(double x) const
{
    if (count == 0)
        return 0.0;
    if (x < lo)
        return 0.0;
    if (x >= hi)
        return 1.0;
    std::uint64_t acc = underflow;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        // Bucket i covers [lo + i*width, lo + (i+1)*width); the bucket
        // containing x is included, which makes the CDF exact for
        // integer-valued samples in unit-width buckets (Figure 6).
        if (lo + i * width <= x + 1e-12)
            acc += buckets[i];
        else
            break;
    }
    return static_cast<double>(acc) / static_cast<double>(count);
}

} // namespace loopsim::stats
