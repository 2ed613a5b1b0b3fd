/**
 * @file
 * Per-cluster insertion table (paper §5.3): a saturating consumer
 * count per physical register. Incremented when a renamed source
 * (whose RPFT bit was clear) is routed to this cluster; decremented on
 * each forwarding-buffer hit; consulted and cleared at writeback to
 * decide whether the value enters this cluster's CRC.
 *
 * The 2-bit width (saturation at 3 consumers) is the paper's design
 * point; width is parameterised for the ablation study.
 */

#ifndef LOOPSIM_DRA_INSERTION_TABLE_HH
#define LOOPSIM_DRA_INSERTION_TABLE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

class InsertionTable
{
  public:
    /**
     * @param num_phys_regs entries (one per physical register)
     * @param bits          counter width; saturates at 2^bits - 1
     */
    InsertionTable(unsigned num_phys_regs, unsigned bits = 2);

    /** A consumer of @p reg was slotted to this cluster. */
    void increment(PhysReg reg);

    /** A consumer of @p reg got the value from the forwarding buffer. */
    void decrement(PhysReg reg);

    /** Outstanding consumer count for @p reg. */
    unsigned count(PhysReg reg) const;

    /** Register reallocated / value consumed into the CRC. */
    void clear(PhysReg reg);

    unsigned maxCount() const { return maxVal; }

    /** Increments lost to saturation (ablation statistic). */
    std::uint64_t saturationDrops() const { return satDrops; }

  private:
    std::vector<std::uint8_t> counts;
    unsigned maxVal;
    std::uint64_t satDrops = 0;
};

} // namespace loopsim

#endif // LOOPSIM_DRA_INSERTION_TABLE_HH
