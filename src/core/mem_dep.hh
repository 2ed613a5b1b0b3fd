/**
 * @file
 * Memory dependence prediction for the load/store reorder trap loop.
 *
 * The paper's Figure 2 shows the Alpha 21264's "memory trap loop":
 * a load that issues before an older store to the same address reads
 * stale data; the conflict is detected when the store executes, and
 * recovery restarts the load from the *fetch* stage (initiation at
 * issue, recovery at fetch). To keep the trap rare the 21264 trains a
 * PC-indexed wait table: a load that trapped once is subsequently held
 * at issue until older stores have executed.
 *
 * This class is that wait table: one sticky bit per load PC hash,
 * periodically cleared so stale conservatism decays.
 */

#ifndef LOOPSIM_CORE_MEM_DEP_HH
#define LOOPSIM_CORE_MEM_DEP_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

class MemDepPredictor
{
  public:
    /**
     * @param entries        wait-table size (power of two)
     * @param clear_interval cycles between table clears (0 = never)
     */
    explicit MemDepPredictor(std::size_t entries = 2048,
                             std::uint64_t clear_interval = 32768);

    /** Should the load at @p pc wait for older stores? */
    bool shouldWait(Addr pc, Cycle now);

    /**
     * Const peek at the wait bit as it stands *now*, for the sparse
     * kernel: no lazy table clear, no waitCount bump. A load held by
     * this bit unblocks no earlier than nextClearAt() (the bit only
     * changes via trainTrap or the clear), so when the incremental
     * issue pass (core_backend.cc) holds such a load it notes the
     * issue-stage gate at exactly nextClearAt() — the table clear is a
     * first-class ready-structure mutation point, exercised by the
     * KernelDifferential.ReadyTrackingStress reissue-storm test with
     * clear intervals far below the default.
     */
    bool
    wouldWait(Addr pc) const
    {
        return bits[(pc >> 2) & (bits.size() - 1)];
    }

    /** The cycle of the next lazy table clear (invalidCycle: never). */
    Cycle nextClearAt() const { return nextClear; }

    /** The load at @p pc suffered a reorder trap: set its wait bit. */
    void trainTrap(Addr pc);

    std::size_t size() const { return bits.size(); }
    std::uint64_t traps() const { return trapCount; }
    std::uint64_t waits() const { return waitCount; }

  private:
    void maybeClear(Cycle now);

    std::vector<bool> bits;
    std::uint64_t clearInterval;
    Cycle nextClear;
    std::uint64_t trapCount = 0;
    std::uint64_t waitCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_MEM_DEP_HH
