/**
 * @file
 * The statistic types a run accumulates.
 *
 * A statistic is a plain value member of its owner; resetting one is
 * assigning it a fresh value (Core::beginMeasurement()). Kinds:
 *
 *  - Scalar: a plain counter / accumulator.
 *  - Average: mean of samples (sum and count tracked).
 *  - Vector: a fixed number of scalar bins.
 *  - Distribution: bucketed distribution over a numeric range with a
 *    CDF query (used for Figure 6).
 */

#ifndef LOOPSIM_STATS_STATISTICS_HH
#define LOOPSIM_STATS_STATISTICS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace loopsim::stats
{

/** A statistic with one exported number (Core::exportedStats()). */
class Stat
{
  public:
    virtual ~Stat() = default;

    /** Primary numeric value (total for scalars, mean for averages). */
    virtual double value() const = 0;

  protected:
    Stat() = default;
    Stat(const Stat &) = default;
    Stat(Stat &&) = default;
    Stat &operator=(const Stat &) = default;
    Stat &operator=(Stat &&) = default;
};

/** A counter/accumulator. */
class Scalar : public Stat
{
  public:
    Scalar &operator++() { ++total; return *this; }
    Scalar &operator+=(double v) { total += v; return *this; }

    double value() const override { return total; }

  private:
    double total = 0.0;
};

/** Mean over explicit samples. */
class Average : public Stat
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++count;
    }

    /**
     * Span-weighted sampling: @p n repeats of the same value in one
     * call. For integer-valued @p v (every per-cycle occupancy this
     * stat records) `sum += v * n` is bit-identical to @p n repeated
     * additions — both are exact up to 2^53 — which is what keeps the
     * sparse kernel's statistics byte-equal to the dense kernel's.
     */
    void
    sample(double v, std::uint64_t n)
    {
        sum += v * static_cast<double>(n);
        count += n;
    }

    double value() const override { return count ? sum / count : 0.0; }
    double total() const { return sum; }
    std::uint64_t samples() const { return count; }

  private:
    double sum = 0.0;
    std::uint64_t count = 0;
};

/** A fixed number of scalar bins. */
class Vector
{
  public:
    explicit Vector(std::size_t num_bins);

    void add(std::size_t bin, double v = 1.0);

    std::size_t size() const { return bins.size(); }
    double bin(std::size_t i) const;

    /** Sum over all bins. */
    double value() const;
    /** bin(i) / value(), or 0 when the total is 0. */
    double fraction(std::size_t i) const;

  private:
    std::vector<double> bins;
};

/**
 * Bucketed distribution over [min, max) with fixed bucket width.
 * Samples below the range count as underflow, at or above it only
 * towards samples().
 */
class Distribution
{
  public:
    Distribution(double min, double max, double bucket_width);

    void sample(double v, std::uint64_t n = 1);

    std::uint64_t samples() const { return count; }
    std::uint64_t bucketCount(std::size_t i) const;

    /** Fraction of samples with value <= x (empirical CDF; the bucket
     *  containing x counts fully, exact for unit integer buckets). */
    double cdf(double x) const;

  private:
    double lo;
    double hi;
    double width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t count = 0;
};

} // namespace loopsim::stats

#endif // LOOPSIM_STATS_STATISTICS_HH
