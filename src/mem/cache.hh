/**
 * @file
 * Set-associative LRU cache tag model.
 *
 * The simulator is timing-only, so caches track tags and LRU stamps,
 * not data. Banking is modelled for the L1D: simultaneous
 * same-cycle accesses to one bank conflict and the loser is delayed.
 */

#ifndef LOOPSIM_MEM_CACHE_HH
#define LOOPSIM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc      ways per set
     * @param line_bytes line size (power of two)
     * @param banks      number of banks (power of two, >= 1)
     */
    Cache(std::uint64_t size_bytes, unsigned assoc, unsigned line_bytes,
          unsigned banks = 1);

    /**
     * Access the line containing @p addr; allocate it on a miss.
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Tag-check only: would @p addr hit? No state change. */
    bool probe(Addr addr) const;

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** Bank servicing @p addr. */
    unsigned bank(Addr addr) const;
    unsigned numBanks() const { return banks; }

    std::uint64_t sizeBytes() const { return bytes; }
    unsigned associativity() const { return assoc; }
    unsigned lineBytes() const { return line; }
    std::size_t numSets() const { return sets; }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    double
    missRate() const
    {
        std::uint64_t total = hitCount + missCount;
        return total ? double(missCount) / double(total) : 0.0;
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t stamp = 0; ///< last use
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    Line *victim(std::size_t set);

    std::uint64_t bytes;
    unsigned assoc;
    unsigned line;
    unsigned lineShift;
    std::size_t sets;
    unsigned banks;

    std::vector<Line> lines;
    std::uint64_t stamp = 0;

    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_MEM_CACHE_HH
