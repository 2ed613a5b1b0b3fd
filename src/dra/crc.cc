#include "dra/crc.hh"

#include "base/logging.hh"
#include "base/str.hh"
#include "sim/feedback_port.hh"

namespace loopsim
{

CrcRepl
parseCrcRepl(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "fifo")
        return CrcRepl::Fifo;
    if (n == "lru")
        return CrcRepl::Lru;
    fatal("unknown CRC replacement policy: ", name);
}

ClusterRegisterCache::ClusterRegisterCache(unsigned num_phys_regs,
                                           unsigned num_entries,
                                           CrcRepl repl_policy,
                                           Cycle timeout_cycles)
    : entriesMax(num_entries), repl(repl_policy), timeout(timeout_cycles),
      store(num_entries), slotOf(num_phys_regs, noSlot)
{
    fatal_if(num_phys_regs == 0, "CRC needs registers");
    fatal_if(num_entries == 0, "CRC needs entries");
}

ClusterRegisterCache::Entry *
ClusterRegisterCache::find(PhysReg reg)
{
    panic_if(reg >= slotOf.size(), "CRC register out of range");
    std::uint32_t slot = slotOf[reg];
    Entry *e = slot == noSlot ? nullptr : &store[slot];
    if (audit::enabled()) [[unlikely]] {
        panic_if(e != findByScan(reg),
                 "CRC index disagrees with the slot scan for reg ", reg);
    }
    return e;
}

ClusterRegisterCache::Entry *
ClusterRegisterCache::findByScan(PhysReg reg)
{
    for (auto &e : store) {
        if (e.valid && e.reg == reg)
            return &e;
    }
    return nullptr;
}

void
ClusterRegisterCache::drop(Entry &e)
{
    e.valid = false;
    slotOf[e.reg] = noSlot;
}

bool
ClusterRegisterCache::lookup(PhysReg reg, Cycle now)
{
    Entry *e = find(reg);
    if (e && timeout > 0 && now > e->insertedAt + timeout) {
        // §5.5 alternative: age out stale entries instead of relying
        // solely on reallocation invalidates.
        drop(*e);
        ++timeoutCount;
        e = nullptr;
    }
    if (e) {
        ++hitCount;
        if (repl == CrcRepl::Lru)
            e->stamp = ++stamp;
        return true;
    }
    ++missCount;
    return false;
}

void
ClusterRegisterCache::insert(PhysReg reg, Cycle now)
{
    ++insertCount;
    Entry *e = find(reg);
    if (e) {
        // Refreshing an existing entry (a re-writeback after reissue).
        e->stamp = ++stamp;
        e->insertedAt = now;
        return;
    }
    Entry *victim = nullptr;
    for (auto &cand : store) {
        if (!cand.valid) {
            victim = &cand;
            break;
        }
        if (!victim || cand.stamp < victim->stamp)
            victim = &cand;
    }
    if (victim->valid) {
        drop(*victim);
        ++evictCount;
    }
    slotOf[reg] = static_cast<std::uint32_t>(victim - store.data());
    victim->valid = true;
    victim->reg = reg;
    victim->stamp = ++stamp;
    victim->insertedAt = now;
}

void
ClusterRegisterCache::invalidate(PhysReg reg)
{
    Entry *e = find(reg);
    if (e) {
        drop(*e);
        ++invalidateCount;
    }
}

std::size_t
ClusterRegisterCache::occupancy() const
{
    std::size_t n = 0;
    for (const auto &e : store)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace loopsim
