/**
 * @file
 * Cluster register cache (paper §5.1): a small fully-associative cache
 * of register values placed next to one functional-unit cluster. The
 * paper's design point is 16 entries with FIFO replacement; LRU and an
 * LRU-on-read variant are provided for the ablation study.
 *
 * The hardware is a CAM. The model finds an entry through a reverse
 * index, register -> slot, that holds exactly the valid entries; a
 * register has at most one valid entry (insert refreshes an existing
 * one), so the index returns the entry a scan of the slots would.
 * Victim choice still scans the slots.
 */

#ifndef LOOPSIM_DRA_CRC_HH
#define LOOPSIM_DRA_CRC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

/** CRC replacement policies (ablation: §5.1 says FIFO is enough). */
enum class CrcRepl : std::uint8_t
{
    Fifo, ///< overwrite the oldest insertion (the paper's choice)
    Lru,  ///< reads refresh recency
};

/** Parse "fifo" / "lru"; fatal() otherwise. */
CrcRepl parseCrcRepl(const std::string &name);

class ClusterRegisterCache
{
  public:
    /**
     * @param num_phys_regs registers the index covers; larger register
     *                      numbers panic
     * @param num_entries CRC capacity
     * @param repl        replacement policy
     * @param timeout     age in cycles after which an entry expires
     *                    (the paper's §5.5 alternative to explicit
     *                    invalidation); 0 disables the timeout
     */
    ClusterRegisterCache(unsigned num_phys_regs, unsigned num_entries,
                         CrcRepl repl, Cycle timeout = 0);

    /**
     * Is @p reg's value present (and not timed out at @p now)? Hits do
     * not remove the entry (values may have multiple consumers in this
     * cluster).
     */
    bool lookup(PhysReg reg, Cycle now = 0);

    /** Insert @p reg's value at @p now, evicting per policy if full. */
    void insert(PhysReg reg, Cycle now = 0);

    /** Invalidate @p reg if present (register reallocation, §5.5). */
    void invalidate(PhysReg reg);

    unsigned capacity() const { return entriesMax; }
    std::size_t occupancy() const;

    /** @name Structure statistics */
    /// @{
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t insertions() const { return insertCount; }
    std::uint64_t evictions() const { return evictCount; }
    std::uint64_t invalidations() const { return invalidateCount; }
    std::uint64_t timeouts() const { return timeoutCount; }
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        PhysReg reg = invalidPhysReg;
        std::uint64_t stamp = 0;
        Cycle insertedAt = 0;
    };

    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    /** The valid entry for @p reg, or nullptr: one index load. */
    Entry *find(PhysReg reg);
    /** The slot scan find() replaced; audit mode cross-checks it. */
    Entry *findByScan(PhysReg reg);
    /** Make @p e invalid and drop it from the index. */
    void drop(Entry &e);

    unsigned entriesMax;
    CrcRepl repl;
    Cycle timeout;
    std::vector<Entry> store;
    /** reg -> slot in store of its valid entry, noSlot when absent. */
    std::vector<std::uint32_t> slotOf;
    std::uint64_t stamp = 0;

    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t insertCount = 0;
    std::uint64_t evictCount = 0;
    std::uint64_t invalidateCount = 0;
    std::uint64_t timeoutCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_DRA_CRC_HH
