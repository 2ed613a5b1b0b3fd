#include "dra/insertion_table.hh"

#include "base/logging.hh"

namespace loopsim
{

InsertionTable::InsertionTable(unsigned num_phys_regs, unsigned bits)
    : counts(num_phys_regs, 0), maxVal((1u << bits) - 1)
{
    fatal_if(num_phys_regs == 0, "insertion table needs registers");
    fatal_if(bits == 0 || bits > 8, "insertion table width out of range");
}

void
InsertionTable::increment(PhysReg reg)
{
    panic_if(reg >= counts.size(), "insertion table reg out of range");
    if (counts[reg] < maxVal)
        ++counts[reg];
    else
        ++satDrops;
}

void
InsertionTable::decrement(PhysReg reg)
{
    panic_if(reg >= counts.size(), "insertion table reg out of range");
    if (counts[reg] > 0)
        --counts[reg];
}

unsigned
InsertionTable::count(PhysReg reg) const
{
    panic_if(reg >= counts.size(), "insertion table reg out of range");
    return counts[reg];
}

void
InsertionTable::clear(PhysReg reg)
{
    panic_if(reg >= counts.size(), "insertion table reg out of range");
    counts[reg] = 0;
}

} // namespace loopsim
