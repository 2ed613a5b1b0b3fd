#include "stats/statistics.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace loopsim::stats
{

namespace
{

void
printLine(std::ostream &os, const std::string &name, double value,
          const std::string &desc)
{
    os << std::left << std::setw(44) << name << std::right << std::setw(16)
       << value << "  # " << desc << "\n";
}

} // anonymous namespace

void
Scalar::print(std::ostream &os) const
{
    printLine(os, name(), total, desc());
}

void
Average::print(std::ostream &os) const
{
    printLine(os, name(), value(), desc());
    printLine(os, name() + "::samples", static_cast<double>(count), desc());
}

Vector::Vector(std::string name, std::string desc,
               std::vector<std::string> bin_names)
    : Stat(std::move(name), std::move(desc)), names(std::move(bin_names)),
      bins(names.size(), 0.0)
{
    panic_if(names.empty(), "stats::Vector needs at least one bin");
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

const std::string &
Vector::binName(std::size_t i) const
{
    panic_if(i >= names.size(), "stats::Vector bin out of range");
    return names[i];
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

void
Vector::reset()
{
    std::fill(bins.begin(), bins.end(), 0.0);
}

void
Vector::print(std::ostream &os) const
{
    for (std::size_t i = 0; i < bins.size(); ++i)
        printLine(os, name() + "::" + names[i], bins[i], desc());
    printLine(os, name() + "::total", value(), desc());
}

Distribution::Distribution(std::string name, std::string desc, double min,
                           double max, double bucket_width)
    : Stat(std::move(name), std::move(desc)), lo(min), hi(max),
      width(bucket_width)
{
    panic_if(width <= 0.0, "Distribution bucket width must be positive");
    panic_if(hi <= lo, "Distribution range must be non-empty");
    auto n = static_cast<std::size_t>(std::ceil((hi - lo) / width));
    buckets.assign(n, 0);
}

void
Distribution::sample(double v, std::uint64_t n)
{
    if (count == 0) {
        minSeen = v;
        maxSeen = v;
    } else {
        minSeen = std::min(minSeen, v);
        maxSeen = std::max(maxSeen, v);
    }
    count += n;
    sum += v * n;

    if (v < lo) {
        underflow += n;
    } else if (v >= hi) {
        overflow += n;
    } else {
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
Distribution::bucketLow(std::size_t i) const
{
    panic_if(i >= buckets.size(), "Distribution bucket out of range");
    return lo + i * width;
}

double
Distribution::cdf(double x) const
{
    if (count == 0)
        return 0.0;
    if (x < lo)
        return 0.0;
    std::uint64_t acc = underflow;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        // Bucket i covers [lo + i*width, lo + (i+1)*width); the bucket
        // containing x is included, which makes the CDF exact for
        // integer-valued samples in unit-width buckets (Figure 6).
        if (bucketLow(i) <= x + 1e-12)
            acc += buckets[i];
        else
            break;
    }
    if (x >= hi)
        acc = count;
    return static_cast<double>(acc) / static_cast<double>(count);
}

void
Distribution::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    underflow = 0;
    overflow = 0;
    count = 0;
    sum = 0.0;
    minSeen = 0.0;
    maxSeen = 0.0;
}

void
Distribution::print(std::ostream &os) const
{
    printLine(os, name() + "::samples", static_cast<double>(count), desc());
    printLine(os, name() + "::mean", mean(), desc());
    printLine(os, name() + "::min", minSeen, desc());
    printLine(os, name() + "::max", maxSeen, desc());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        std::ostringstream bin;
        bin << name() << "::" << bucketLow(i) << "-"
            << (bucketLow(i) + width);
        printLine(os, bin.str(), static_cast<double>(buckets[i]), desc());
    }
    if (underflow)
        printLine(os, name() + "::underflow",
                  static_cast<double>(underflow), desc());
    if (overflow)
        printLine(os, name() + "::overflow",
                  static_cast<double>(overflow), desc());
}

template <typename T, typename... Args>
T &
StatGroup::emplace(const std::string &name, Args &&...args)
{
    std::string full = groupName.empty() ? name : groupName + "." + name;
    fatal_if(statsByName.count(full),
             "duplicate stat registration: ", full);
    auto stat = std::make_unique<T>(full, std::forward<Args>(args)...);
    T &ref = *stat;
    order.push_back(stat.get());
    statsByName.emplace(full, std::move(stat));
    return ref;
}

Scalar &
StatGroup::newScalar(const std::string &name, const std::string &desc)
{
    return emplace<Scalar>(name, desc);
}

Average &
StatGroup::newAverage(const std::string &name, const std::string &desc)
{
    return emplace<Average>(name, desc);
}

Vector &
StatGroup::newVector(const std::string &name, const std::string &desc,
                     std::vector<std::string> bin_names)
{
    return emplace<Vector>(name, desc, std::move(bin_names));
}

Distribution &
StatGroup::newDistribution(const std::string &name, const std::string &desc,
                           double min, double max, double bucket_width)
{
    return emplace<Distribution>(name, desc, min, max, bucket_width);
}

const Stat *
StatGroup::find(const std::string &name) const
{
    if (!groupName.empty()) {
        auto it = statsByName.find(groupName + "." + name);
        if (it != statsByName.end())
            return it->second.get();
    }
    // Also accept fully-qualified names.
    auto it = statsByName.find(name);
    return it == statsByName.end() ? nullptr : it->second.get();
}

double
StatGroup::lookupValue(const std::string &name) const
{
    const Stat *s = find(name);
    fatal_if(!s, "unknown stat: ", name);
    return s->value();
}

void
StatGroup::resetAll()
{
    for (Stat *s : order)
        s->reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const Stat *s : order)
        s->print(os);
}

} // namespace loopsim::stats
