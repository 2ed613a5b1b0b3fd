#include "dra/dra_unit.hh"

#include <bit>

#include "base/logging.hh"

namespace loopsim
{

namespace
{

/** Add @p cluster to the cluster mask at @p mask. */
void
addCluster(std::uint64_t *mask, ClusterId cluster)
{
    mask[cluster / 64] |= std::uint64_t{1} << (cluster % 64);
}

/** Call @p fn(cluster) for each cluster in the @p words-word mask at
 *  @p mask, lowest first, and clear the mask. */
template <typename Fn>
void
drainMask(std::uint64_t *mask, std::size_t words, Fn &&fn)
{
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
            fn(static_cast<ClusterId>(w * 64 + std::countr_zero(bits)));
        mask[w] = 0;
    }
}

} // anonymous namespace

DraUnit::DraUnit(unsigned num_phys_regs, unsigned num_clusters,
                 unsigned crc_entries, CrcRepl crc_repl,
                 unsigned table_bits, Cycle crc_timeout)
    : filter(num_phys_regs), maskWords((num_clusters + 63) / 64),
      crcMask(std::size_t{num_phys_regs} * maskWords, 0),
      tableMask(std::size_t{num_phys_regs} * maskWords, 0)
{
    fatal_if(num_clusters == 0, "DRA needs clusters");
    tables.reserve(num_clusters);
    caches.reserve(num_clusters);
    for (unsigned c = 0; c < num_clusters; ++c) {
        tables.emplace_back(num_phys_regs, table_bits);
        caches.emplace_back(num_phys_regs, crc_entries, crc_repl,
                            crc_timeout);
    }
}

bool
DraUnit::renameSource(PhysReg reg, ClusterId cluster)
{
    panic_if(cluster >= tables.size(), "cluster out of range");
    if (filter.test(reg)) {
        ++preReadCount;
        return true;
    }
    tables[cluster].increment(reg);
    addCluster(maskOf(tableMask, reg), cluster);
    return false;
}

void
DraUnit::renameDest(PhysReg reg)
{
    // The renamer broadcasts reallocated register numbers to the RPFT
    // and all CRCs (stale-value invalidation, §5.5) and the insertion
    // tables forget any stale consumer counts.
    filter.clear(reg);
    drainMask(maskOf(tableMask, reg), maskWords,
              [&](ClusterId c) { tables[c].clear(reg); });
    drainMask(maskOf(crcMask, reg), maskWords,
              [&](ClusterId c) { caches[c].invalidate(reg); });
}

void
DraUnit::forwardHit(PhysReg reg, ClusterId cluster)
{
    panic_if(cluster >= tables.size(), "cluster out of range");
    tables[cluster].decrement(reg);
}

bool
DraUnit::lookupCached(PhysReg reg, ClusterId cluster, Cycle now)
{
    panic_if(cluster >= caches.size(), "cluster out of range");
    return caches[cluster].lookup(reg, now);
}

void
DraUnit::writeback(PhysReg reg, Cycle now)
{
    filter.set(reg);
    std::uint64_t *crc_clusters = maskOf(crcMask, reg);
    // Every count of reg is zero afterwards, so its table mask empties.
    drainMask(maskOf(tableMask, reg), maskWords, [&](ClusterId c) {
        if (tables[c].count(reg) > 0) {
            caches[c].insert(reg, now);
            tables[c].clear(reg);
            addCluster(crc_clusters, c);
        }
    });
}

void
DraUnit::regFreed(PhysReg reg)
{
    renameDest(reg);
}

const ClusterRegisterCache &
DraUnit::crc(ClusterId cluster) const
{
    panic_if(cluster >= caches.size(), "cluster out of range");
    return caches[cluster];
}

const InsertionTable &
DraUnit::insertionTable(ClusterId cluster) const
{
    panic_if(cluster >= tables.size(), "cluster out of range");
    return tables[cluster];
}

std::uint64_t
DraUnit::crcInsertions() const
{
    std::uint64_t n = 0;
    for (const auto &c : caches)
        n += c.insertions();
    return n;
}

std::uint64_t
DraUnit::crcEvictions() const
{
    std::uint64_t n = 0;
    for (const auto &c : caches)
        n += c.evictions();
    return n;
}

std::uint64_t
DraUnit::saturationDrops() const
{
    std::uint64_t n = 0;
    for (const auto &t : tables)
        n += t.saturationDrops();
    return n;
}

} // namespace loopsim
