#include "core/mem_dep.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace loopsim
{

MemDepPredictor::MemDepPredictor(std::size_t entries,
                                 std::uint64_t clear_interval)
    : bits(entries, false), clearInterval(clear_interval),
      nextClear(clear_interval == 0 ? invalidCycle : clear_interval)
{
    fatal_if(entries == 0 || !isPowerOf2(entries),
             "memory dependence table size must be a power of two");
}

void
MemDepPredictor::maybeClear(Cycle now)
{
    if (now >= nextClear) {
        std::fill(bits.begin(), bits.end(), false);
        nextClear = now + clearInterval;
    }
}

bool
MemDepPredictor::shouldWait(Addr pc, Cycle now)
{
    maybeClear(now);
    bool wait = bits[(pc >> 2) & (bits.size() - 1)];
    if (wait)
        ++waitCount;
    return wait;
}

void
MemDepPredictor::trainTrap(Addr pc)
{
    bits[(pc >> 2) & (bits.size() - 1)] = true;
    ++trapCount;
}

} // namespace loopsim
