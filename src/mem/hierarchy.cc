#include "mem/hierarchy.hh"

#include "base/logging.hh"
#include "sim/config.hh"

namespace loopsim
{

const char *
memLevelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1: return "L1";
      case MemLevel::L2: return "L2";
      case MemLevel::Memory: return "Memory";
      default: panic("unknown memory level");
    }
}

MemoryHierarchy::MemoryHierarchy(const Config &cfg)
{
    unsigned line = static_cast<unsigned>(cfg.getUint("mem.line", 64));
    l1d = std::make_unique<Cache>(
        cfg.getUint("mem.l1.size", 64 * 1024),
        static_cast<unsigned>(cfg.getUint("mem.l1.assoc", 2)), line,
        static_cast<unsigned>(cfg.getUint("mem.l1.banks", 32)));
    l2u = std::make_unique<Cache>(
        cfg.getUint("mem.l2.size", 1024 * 1024),
        static_cast<unsigned>(cfg.getUint("mem.l2.assoc", 8)), line);
    dtlb = std::make_unique<Tlb>(cfg.getUint("mem.tlb.entries", 128),
                                 cfg.getUint("mem.tlb.page", 8192));
    mshrBusyUntil.assign(cfg.getUint("mem.mshrs", 16), 0);

    l1Lat = static_cast<unsigned>(cfg.getUint("mem.l1.latency", 3));
    l2Lat = static_cast<unsigned>(cfg.getUint("mem.l2.latency", 12));
    memLat = static_cast<unsigned>(cfg.getUint("mem.latency", 150));

    fatal_if(l1Lat == 0, "L1 latency must be >= 1");
    bankUse.assign(l1d->numBanks(), 0);
}

MemAccessResult
MemoryHierarchy::access(Addr addr, ThreadId tid, bool is_store, Cycle now)
{
    ++accessCount;
    MemAccessResult res;

    // Bank arbitration: reset the per-bank counters at each new cycle;
    // every same-cycle load to an already-claimed bank replays one
    // cycle later (counted as extra latency on the loser). Stores do
    // not contend for the load ports.
    unsigned queued = 0;
    if (!is_store) {
        if (bankCycle != now) {
            bankCycle = now;
            for (auto &u : bankUse)
                u = 0;
        }
        unsigned bank = l1d->bank(addr);
        queued = bankUse[bank]++;
        if (queued > 0) {
            res.bankConflict = true;
            ++bankConflictCount;
        }
    }

    res.tlbMiss = !dtlb->access(addr, tid);

    bool l1_hit = l1d->access(addr);
    if (l1_hit) {
        res.level = MemLevel::L1;
        res.latency = l1Lat + queued;
        return res;
    }

    // An L1 miss needs a free miss-status register; when all are busy
    // the refill waits for the oldest to retire (finite MLP).
    Cycle start = now + l1Lat;
    std::size_t slot = 0;
    Cycle earliest = mshrBusyUntil[0];
    for (std::size_t i = 0; i < mshrBusyUntil.size(); ++i) {
        if (mshrBusyUntil[i] < earliest) {
            earliest = mshrBusyUntil[i];
            slot = i;
        }
        if (mshrBusyUntil[i] <= start) {
            slot = i;
            earliest = mshrBusyUntil[i];
            break;
        }
    }
    unsigned mshr_wait = 0;
    if (earliest > start) {
        mshr_wait = static_cast<unsigned>(earliest - start);
        mshrStalls += mshr_wait;
    }

    bool l2_hit = l2u->access(addr);
    if (l2_hit) {
        res.level = MemLevel::L2;
        res.latency = l1Lat + mshr_wait + l2Lat + queued;
    } else {
        res.level = MemLevel::Memory;
        res.latency = l1Lat + mshr_wait + l2Lat + memLat + queued;
    }
    mshrBusyUntil[slot] = now + res.latency;
    (void)is_store;
    return res;
}

} // namespace loopsim
