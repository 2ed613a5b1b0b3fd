/**
 * @file
 * The data-memory hierarchy: banked L1D, unified L2, main memory, and
 * the data TLB. Resolves each access to a data-ready latency plus trap
 * annotations; the core turns those into load-resolution-loop events.
 */

#ifndef LOOPSIM_MEM_HIERARCHY_HH
#define LOOPSIM_MEM_HIERARCHY_HH

#include <array>

#include "base/types.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace loopsim
{

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

/**
 * The paper's §2 data side, fixed: a 64 KiB 2-way L1D in 32 banks of
 * 64-byte lines with a 3-cycle hit, a 1 MiB 8-way L2 12 cycles beyond
 * it, memory 150 cycles beyond that, 16 MSHRs and a 128-entry dTLB of
 * 8 KiB pages. No figure varies any of these.
 */
class MemoryHierarchy
{
  public:
    static constexpr unsigned kLineBytes = 64;
    static constexpr unsigned kL1Banks = 32;
    /** L1 hit latency (the speculative load-to-use assumption). */
    static constexpr unsigned kL1Latency = 3;
    static constexpr unsigned kL2Latency = 12; ///< beyond the L1 latency
    static constexpr unsigned kMemLatency = 150; ///< beyond the L2's
    static constexpr unsigned kMshrs = 16;

    /**
     * Perform the access for @p addr at cycle @p now.
     * Stores update cache state but their latency result is only used
     * for statistics (stores have no register consumers).
     */
    MemAccessResult access(Addr addr, ThreadId tid, bool is_store,
                           Cycle now);

    const Cache &l1() const { return l1d; }
    const Cache &l2() const { return l2u; }
    const Tlb &tlb() const { return dtlb; }

    std::uint64_t accesses() const { return accessCount; }
    std::uint64_t bankConflicts() const { return bankConflictCount; }
    /** Cycles added to misses because all MSHRs were busy. */
    std::uint64_t mshrStallCycles() const { return mshrStalls; }

  private:
    Cache l1d{64 * 1024, 2, kLineBytes, kL1Banks};
    Cache l2u{1024 * 1024, 8, kLineBytes};
    Tlb dtlb{128, 8192};

    /** Per-bank arbitration state for the current cycle. */
    Cycle bankCycle = invalidCycle;
    std::array<unsigned, kL1Banks> bankUse{};

    /** Outstanding-miss slots: busy-until cycles (MSHR model). */
    std::array<Cycle, kMshrs> mshrBusyUntil{};
    std::uint64_t mshrStalls = 0;

    std::uint64_t accessCount = 0;
    std::uint64_t bankConflictCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_MEM_HIERARCHY_HH
