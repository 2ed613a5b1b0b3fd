/**
 * @file
 * Fully-associative data TLB with LRU replacement. A dTLB miss in the
 * base machine is a memory trap recovered from the front of the pipe
 * (paper §3.1, turb3d discussion).
 *
 * Lookups go through a chained hash index from (vpn, tid) to the
 * entry's slot, so a hit costs one short chain walk instead of a scan
 * of every entry. The index holds exactly the valid entries, and a
 * (vpn, tid) pair is filled only on a miss, so it names at most one
 * slot: the hit/miss sequence is the one a full scan gives. Only a
 * miss scans the entries, to pick the LRU victim.
 */

#ifndef LOOPSIM_MEM_TLB_HH
#define LOOPSIM_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

class Tlb
{
  public:
    /**
     * @param entries    number of TLB entries
     * @param page_bytes page size (power of two)
     */
    explicit Tlb(std::size_t entries = 128,
                 std::uint64_t page_bytes = 8192);

    /**
     * Translate @p addr for thread @p tid; fills the entry on a miss.
     * @return true on hit.
     */
    bool access(Addr addr, ThreadId tid);

    /** Tag-check only, no fill or LRU update. */
    bool probe(Addr addr, ThreadId tid) const;

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t pageBytes() const { return pageSize; }
    std::size_t size() const { return entries.size(); }

  private:
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        ThreadId tid = 0;
        std::uint64_t stamp = 0;
        /** Next slot in the same hash bucket. */
        std::uint32_t chain = noSlot;
    };

    Addr vpnOf(Addr addr) const { return addr / pageSize; }
    std::size_t bucketOf(Addr vpn, ThreadId tid) const;
    /** Slot holding (vpn, tid), or noSlot. */
    std::uint32_t find(Addr vpn, ThreadId tid) const;

    std::vector<Entry> entries;
    /** Hash index: head slot of each bucket's chain. */
    std::vector<std::uint32_t> buckets;
    unsigned bucketShift;
    std::uint64_t pageSize;
    std::uint64_t stamp = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_MEM_TLB_HH
