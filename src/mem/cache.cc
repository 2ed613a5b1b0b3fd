#include "mem/cache.hh"

#include <utility>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace loopsim
{

Cache::Cache(std::uint64_t size_bytes, unsigned ways, unsigned line_bytes,
             unsigned num_banks)
    : bytes(size_bytes), assoc(ways), line(line_bytes),
      lineShift(floorLog2(line_bytes)),
      sets(ways && line_bytes
               ? size_bytes / (std::uint64_t(ways) * line_bytes) : 0),
      banks(num_banks), lines(sets * ways)
{
    fatal_if(assoc == 0, "cache associativity must be > 0");
    fatal_if(!isPowerOf2(line_bytes), "cache line size must be 2^n");
    fatal_if(sets == 0, "cache smaller than one set");
    fatal_if(!isPowerOf2(sets), "cache set count must be 2^n");
    fatal_if(!isPowerOf2(banks), "cache bank count must be 2^n");
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (sets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift;
}

unsigned
Cache::bank(Addr addr) const
{
    return (addr >> lineShift) & (banks - 1);
}

Cache::Line *
Cache::findLine(Addr addr)
{
    return const_cast<Line *>(std::as_const(*this).findLine(addr));
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    std::size_t base = setIndex(addr) * assoc;
    Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc; ++w) {
        const Line &l = lines[base + w];
        if (l.valid && l.tag == tag)
            return &l;
    }
    return nullptr;
}

Cache::Line *
Cache::victim(std::size_t set)
{
    std::size_t base = set * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        if (!lines[base + w].valid)
            return &lines[base + w];
    }
    Line *v = &lines[base];
    for (unsigned w = 1; w < assoc; ++w) {
        if (lines[base + w].stamp < v->stamp)
            v = &lines[base + w];
    }
    return v;
}

bool
Cache::access(Addr addr)
{
    Line *l = findLine(addr);
    if (l) {
        ++hitCount;
        l->stamp = ++stamp;
        return true;
    }
    ++missCount;
    Line *v = victim(setIndex(addr));
    v->valid = true;
    v->tag = tagOf(addr);
    v->stamp = ++stamp;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

void
Cache::invalidate(Addr addr)
{
    Line *l = findLine(addr);
    if (l)
        l->valid = false;
}

} // namespace loopsim
