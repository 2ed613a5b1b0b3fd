#include "mem/hierarchy.hh"

#include "base/logging.hh"

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
        unsigned bank = l1d.bank(addr);
        queued = bankUse[bank]++;
        if (queued > 0) {
            res.bankConflict = true;
            ++bankConflictCount;
        }
    }

    res.tlbMiss = !dtlb.access(addr, tid);

    bool l1_hit = l1d.access(addr);
    if (l1_hit) {
        res.level = MemLevel::L1;
        res.latency = kL1Latency + queued;
        return res;
    }

    // An L1 miss needs a free miss-status register; when all are busy
    // the refill waits for the oldest to retire (finite MLP).
    Cycle start = now + kL1Latency;
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

    bool l2_hit = l2u.access(addr);
    if (l2_hit) {
        res.level = MemLevel::L2;
        res.latency = kL1Latency + mshr_wait + kL2Latency + queued;
    } else {
        res.level = MemLevel::Memory;
        res.latency =
            kL1Latency + mshr_wait + kL2Latency + kMemLatency + queued;
    }
    mshrBusyUntil[slot] = now + res.latency;
    (void)is_store;
    return res;
}

} // namespace loopsim
