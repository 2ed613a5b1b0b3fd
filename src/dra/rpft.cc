#include "dra/rpft.hh"

#include <algorithm>

#include "base/logging.hh"

namespace loopsim
{

Rpft::Rpft(unsigned num_phys_regs)
    : numRegs(num_phys_regs), bits(num_phys_regs, false)
{
    fatal_if(num_phys_regs == 0, "RPFT needs registers");
}

void
Rpft::set(PhysReg reg)
{
    panic_if(reg >= numRegs, "RPFT register out of range");
    bits[reg] = true;
}

void
Rpft::clear(PhysReg reg)
{
    panic_if(reg >= numRegs, "RPFT register out of range");
    bits[reg] = false;
}

bool
Rpft::test(PhysReg reg) const
{
    panic_if(reg >= numRegs, "RPFT register out of range");
    return bits[reg];
}

std::size_t
Rpft::popcount() const
{
    return static_cast<std::size_t>(
        std::count(bits.begin(), bits.end(), true));
}

} // namespace loopsim
