#include "mem/tlb.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace loopsim
{

Tlb::Tlb(std::size_t num_entries, std::uint64_t page_bytes)
    : entries(num_entries), pageSize(page_bytes)
{
    fatal_if(num_entries == 0, "TLB must have entries");
    fatal_if(num_entries >= noSlot, "TLB too large");
    fatal_if(!isPowerOf2(page_bytes), "page size must be 2^n");
    // At least two buckets per entry keeps the chains about one long.
    std::size_t n_buckets = 2;
    while (n_buckets < 2 * num_entries)
        n_buckets *= 2;
    buckets.assign(n_buckets, noSlot);
    bucketShift = 64 - floorLog2(n_buckets);
}

std::size_t
Tlb::bucketOf(Addr vpn, ThreadId tid) const
{
    // Fibonacci hashing: the multiply spreads the low vpn bits that
    // neighbouring pages differ in over the top bits kept.
    std::uint64_t key = vpn ^ (std::uint64_t{tid} << 56);
    return (key * 0x9e3779b97f4a7c15ULL) >> bucketShift;
}

std::uint32_t
Tlb::find(Addr vpn, ThreadId tid) const
{
    std::uint32_t slot = buckets[bucketOf(vpn, tid)];
    while (slot != noSlot) {
        const Entry &e = entries[slot];
        if (e.vpn == vpn && e.tid == tid)
            return slot;
        slot = e.chain;
    }
    return noSlot;
}

bool
Tlb::access(Addr addr, ThreadId tid)
{
    Addr vpn = vpnOf(addr);
    if (std::uint32_t slot = find(vpn, tid); slot != noSlot) {
        entries[slot].stamp = ++stamp;
        ++hitCount;
        return true;
    }
    ++missCount;

    // Victim: the last invalid entry, else the least recently used.
    Entry *lru = &entries[0];
    for (auto &e : entries) {
        if (!e.valid || e.stamp < lru->stamp)
            lru = &e;
    }
    auto victim = static_cast<std::uint32_t>(lru - entries.data());
    if (lru->valid) {
        std::uint32_t *link = &buckets[bucketOf(lru->vpn, lru->tid)];
        while (*link != victim)
            link = &entries[*link].chain;
        *link = lru->chain;
    }
    std::uint32_t &head = buckets[bucketOf(vpn, tid)];
    *lru = Entry{true, vpn, tid, ++stamp, head};
    head = victim;
    return false;
}

bool
Tlb::probe(Addr addr, ThreadId tid) const
{
    return find(vpnOf(addr), tid) != noSlot;
}

} // namespace loopsim
