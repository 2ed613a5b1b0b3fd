/**
 * @file
 * The data-memory hierarchy: banked L1D, unified L2, main memory, and
 * the data TLB. Resolves each access to a data-ready latency plus trap
 * annotations; the core turns those into load-resolution-loop events.
 */

#ifndef LOOPSIM_MEM_HIERARCHY_HH
#define LOOPSIM_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "base/types.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace loopsim
{

class Config;

/** Where an access was satisfied. */
enum class MemLevel : std::uint8_t { L1, L2, Memory };

const char *memLevelName(MemLevel level);

/** Outcome of one data access. */
struct MemAccessResult
{
    /** Cycles from cache access start until data is ready. */
    unsigned latency = 0;
    MemLevel level = MemLevel::L1;
    /** The access missed the dTLB (memory trap; refetch recovery). */
    bool tlbMiss = false;
    /** The access lost a same-cycle bank arbitration. */
    bool bankConflict = false;

    /** A load "hit" for hit-speculation purposes: L1 and no hazards. */
    bool
    isPredictableHit() const
    {
        return level == MemLevel::L1 && !tlbMiss && !bankConflict;
    }
};

class MemoryHierarchy
{
  public:
    /** Parameters are read from "mem.*" keys of @p cfg. */
    explicit MemoryHierarchy(const Config &cfg);

    /**
     * Perform the access for @p addr at cycle @p now.
     * Stores update cache state but their latency result is only used
     * for statistics (stores have no register consumers).
     */
    MemAccessResult access(Addr addr, ThreadId tid, bool is_store,
                           Cycle now);

    /** L1 hit latency (the speculative load-to-use assumption). */
    unsigned l1Latency() const { return l1Lat; }

    const Cache &l1() const { return *l1d; }
    const Cache &l2() const { return *l2u; }
    const Tlb &tlb() const { return *dtlb; }

    std::uint64_t accesses() const { return accessCount; }
    std::uint64_t bankConflicts() const { return bankConflictCount; }
    /** Cycles added to misses because all MSHRs were busy. */
    std::uint64_t mshrStallCycles() const { return mshrStalls; }

  private:
    std::unique_ptr<Cache> l1d;
    std::unique_ptr<Cache> l2u;
    std::unique_ptr<Tlb> dtlb;

    unsigned l1Lat;
    unsigned l2Lat;  ///< additional cycles beyond the L1 latency
    unsigned memLat; ///< additional cycles beyond the L2 latency

    /** Per-bank arbitration state for the current cycle. */
    Cycle bankCycle = invalidCycle;
    std::vector<unsigned> bankUse;

    /** Outstanding-miss slots: busy-until cycles (MSHR model). */
    std::vector<Cycle> mshrBusyUntil;
    std::uint64_t mshrStalls = 0;

    std::uint64_t accessCount = 0;
    std::uint64_t bankConflictCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_MEM_HIERARCHY_HH
