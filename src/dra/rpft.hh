/**
 * @file
 * Register pre-read filtering table (paper §5.2): one bit per physical
 * register, set while the register's value is present in the register
 * file. A set bit at rename time classifies the operand as "completed"
 * and allows it to be pre-read into the IQ payload; a clear bit routes
 * the source register number to the slotted cluster's insertion table.
 */

#ifndef LOOPSIM_DRA_RPFT_HH
#define LOOPSIM_DRA_RPFT_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

class Rpft
{
  public:
    explicit Rpft(unsigned num_phys_regs);

    /** Value written back to the RF: mark it pre-readable. */
    void set(PhysReg reg);

    /** Register (re)allocated by the renamer: value is in flight. */
    void clear(PhysReg reg);

    /** Is the operand in @p reg a completed operand? */
    bool test(PhysReg reg) const;

    /** Number of set bits (structure occupancy, for tests/stats). */
    std::size_t popcount() const;

    unsigned size() const { return numRegs; }

  private:
    unsigned numRegs;
    std::vector<bool> bits;
};

} // namespace loopsim

#endif // LOOPSIM_DRA_RPFT_HH
