/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Stats are registered with a StatGroup under a dotted name, accumulate
 * during simulation, and can be dumped as text or queried numerically by
 * the harness. Supported kinds:
 *
 *  - Scalar: a plain counter / accumulator.
 *  - Average: mean of samples (sum and count tracked).
 *  - Vector: fixed number of named scalar bins.
 *  - Distribution: bucketed distribution over a numeric range with
 *    min/max/mean and a CDF query (used for Figure 6).
 */

#ifndef LOOPSIM_STATS_STATISTICS_HH
#define LOOPSIM_STATS_STATISTICS_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace loopsim::stats
{

/** Common interface for every statistic. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Primary numeric value (total for scalars, mean for averages). */
    virtual double value() const = 0;

    /** Reset to the post-construction state. */
    virtual void reset() = 0;

    /** Append a text rendering, one or more lines. */
    virtual void print(std::ostream &os) const = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A counter/accumulator. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { ++total; return *this; }
    Scalar &operator+=(double v) { total += v; return *this; }

    double value() const override { return total; }
    void reset() override { total = 0.0; }
    void print(std::ostream &os) const override;

  private:
    double total = 0.0;
};

/** Mean over explicit samples. */
class Average : public Stat
{
  public:
    using Stat::Stat;

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
    void reset() override { sum = 0.0; count = 0; }
    void print(std::ostream &os) const override;

  private:
    double sum = 0.0;
    std::uint64_t count = 0;
};

/** A fixed set of named scalar bins. */
class Vector : public Stat
{
  public:
    Vector(std::string name, std::string desc,
           std::vector<std::string> bin_names);

    void add(std::size_t bin, double v = 1.0);

    std::size_t size() const { return bins.size(); }
    double bin(std::size_t i) const;
    const std::string &binName(std::size_t i) const;

    /** Sum over all bins. */
    double value() const override;
    /** bin(i) / value(), or 0 when the total is 0. */
    double fraction(std::size_t i) const;

    void reset() override;
    void print(std::ostream &os) const override;

  private:
    std::vector<std::string> names;
    std::vector<double> bins;
};

/**
 * Bucketed distribution over [min, max] with fixed bucket width.
 * Samples outside the range land in underflow/overflow.
 */
class Distribution : public Stat
{
  public:
    Distribution(std::string name, std::string desc, double min, double max,
                 double bucket_width);

    void sample(double v, std::uint64_t n = 1);

    std::uint64_t samples() const { return count; }
    double mean() const { return count ? sum / count : 0.0; }
    double minSample() const { return minSeen; }
    double maxSample() const { return maxSeen; }
    std::size_t numBuckets() const { return buckets.size(); }
    std::uint64_t bucketCount(std::size_t i) const;
    /** Inclusive lower edge of bucket @p i. */
    double bucketLow(std::size_t i) const;
    std::uint64_t underflows() const { return underflow; }
    std::uint64_t overflows() const { return overflow; }

    /** Fraction of samples with value <= x (empirical CDF; the bucket
     *  containing x counts fully, exact for unit integer buckets). */
    double cdf(double x) const;

    double value() const override { return mean(); }
    void reset() override;
    void print(std::ostream &os) const override;

  private:
    double lo;
    double hi;
    double width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double minSeen = 0.0;
    double maxSeen = 0.0;
};

/**
 * Owner/registry of statistics. Components create their stats through a
 * group; the simulator dumps or resets the whole group at once.
 *
 * The registration methods return references the owner is expected to
 * cache: simulation hot paths bump stats only through those handles.
 * The by-name index (a hash map; dump order comes from the separate
 * registration-order list) backs find()/lookupValue() for harness and
 * test queries, never per-cycle work. Groups are confined to the run
 * that built them — one StatGroup per Core — so they need no internal
 * locking under the parallel campaign executor.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : groupName(std::move(name)) {}

    Scalar &newScalar(const std::string &name, const std::string &desc);
    Average &newAverage(const std::string &name, const std::string &desc);
    Vector &newVector(const std::string &name, const std::string &desc,
                      std::vector<std::string> bin_names);
    Distribution &newDistribution(const std::string &name,
                                  const std::string &desc, double min,
                                  double max, double bucket_width);

    /** Look up a stat by exact name; nullptr when absent. */
    const Stat *find(const std::string &name) const;
    /** Value of a named stat; fatal() when the stat does not exist. */
    double lookupValue(const std::string &name) const;

    void resetAll();
    void dump(std::ostream &os) const;

    const std::string &name() const { return groupName; }
    std::size_t size() const { return order.size(); }

  private:
    template <typename T, typename... Args>
    T &emplace(const std::string &name, Args &&...args);

    std::string groupName;
    std::unordered_map<std::string, std::unique_ptr<Stat>> statsByName;
    std::vector<Stat *> order;
};

} // namespace loopsim::stats

#endif // LOOPSIM_STATS_STATISTICS_HH
