/**
 * @file
 * Tests for the memory substrate: caches, TLB, and the hierarchy.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/random.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"

using namespace loopsim;

TEST(Cache, GeometryMath)
{
    Cache c(64 * 1024, 2, 64);
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.lineBytes(), 64u);
    EXPECT_EQ(c.associativity(), 2u);
}

TEST(Cache, MissThenHitSameLine)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64B line
    EXPECT_FALSE(c.access(0x140)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, LruKeepsRecentlyUsed)
{
    // 2-way set: A, B fill it; touching A then inserting C must evict B.
    Cache c(2 * 64 * 4, 2, 64); // 4 sets, 2 ways
    Addr set_stride = 4 * 64;
    Addr a = 0x0;
    Addr b = a + set_stride;
    Addr d = a + 2 * set_stride;
    c.access(a);
    c.access(b);
    c.access(a);       // refresh A
    c.access(d);       // evicts B (LRU)
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, ProbeDoesNotAllocateOrCount)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x100)); // still absent
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(1024, 2, 64);
    c.access(0x100);
    c.invalidate(0x100);
    EXPECT_FALSE(c.probe(0x100));
    c.invalidate(0x9999); // absent invalidate is a no-op
}

TEST(Cache, WorkingSetFitsAfterWarmup)
{
    Cache c(16 * 1024, 4, 64);
    // Touch a 8KB set twice; second pass must be all hits.
    for (Addr a = 0; a < 8192; a += 64)
        c.access(a);
    std::uint64_t misses_before = c.misses();
    for (Addr a = 0; a < 8192; a += 64)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.misses(), misses_before);
}

TEST(Cache, BankSelection)
{
    Cache c(64 * 1024, 2, 64, 8);
    EXPECT_EQ(c.numBanks(), 8u);
    EXPECT_EQ(c.bank(0x0), 0u);
    EXPECT_EQ(c.bank(0x40), 1u);
    EXPECT_EQ(c.bank(0x40 * 8), 0u);
    EXPECT_EQ(c.bank(0x3f), c.bank(0x0)); // same line, same bank
}

TEST(Cache, BadGeometryFatal)
{
    EXPECT_THROW(Cache(1000, 2, 64), FatalError); // non-2^n sets
    EXPECT_THROW(Cache(1024, 0, 64), FatalError);
    EXPECT_THROW(Cache(1024, 2, 63), FatalError);
    EXPECT_THROW(Cache(1024, 2, 64, 3), FatalError);
    EXPECT_THROW(Cache(32, 2, 64), FatalError); // smaller than one set
}

TEST(Tlb, MissFillsEntry)
{
    Tlb tlb(4, 8192);
    EXPECT_FALSE(tlb.access(0x10000, 0));
    EXPECT_TRUE(tlb.access(0x10000, 0));
    EXPECT_TRUE(tlb.access(0x10000 + 8191, 0)); // same page
    EXPECT_FALSE(tlb.access(0x10000 + 8192, 0)); // next page
    EXPECT_EQ(tlb.hits(), 2u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2, 8192);
    tlb.access(0 * 8192, 0);
    tlb.access(1 * 8192, 0);
    tlb.access(0 * 8192, 0); // refresh page 0
    tlb.access(2 * 8192, 0); // evicts page 1
    EXPECT_TRUE(tlb.probe(0 * 8192, 0));
    EXPECT_FALSE(tlb.probe(1 * 8192, 0));
    EXPECT_TRUE(tlb.probe(2 * 8192, 0));
}

TEST(Tlb, PerThreadEntries)
{
    Tlb tlb(8, 8192);
    tlb.access(0x4000, 0);
    EXPECT_FALSE(tlb.probe(0x4000, 1));
    EXPECT_TRUE(tlb.probe(0x4000, 0));
}

TEST(Tlb, BadGeometryFatal)
{
    EXPECT_THROW(Tlb(0, 8192), FatalError);
    EXPECT_THROW(Tlb(8, 1000), FatalError);
}

namespace
{

/** The fully-associative LRU TLB as a plain scan of every entry: the
 *  reference the hashed index must agree with. */
class ScanTlb
{
  public:
    ScanTlb(std::size_t n, std::uint64_t page) : entries(n), pageSize(page)
    {}

    bool
    access(Addr addr, ThreadId tid)
    {
        Addr vpn = addr / pageSize;
        Entry *lru = &entries[0];
        for (auto &e : entries) {
            if (e.valid && e.vpn == vpn && e.tid == tid) {
                e.stamp = ++stamp;
                return true;
            }
            if (!e.valid || e.stamp < lru->stamp)
                lru = &e;
        }
        *lru = Entry{true, vpn, tid, ++stamp};
        return false;
    }

    bool
    probe(Addr addr, ThreadId tid) const
    {
        Addr vpn = addr / pageSize;
        for (const auto &e : entries) {
            if (e.valid && e.vpn == vpn && e.tid == tid)
                return true;
        }
        return false;
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        ThreadId tid = 0;
        std::uint64_t stamp = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t pageSize;
    std::uint64_t stamp = 0;
};

} // anonymous namespace

TEST(Tlb, MatchesLinearScanLru)
{
    // Random sizes, two threads, a page footprint from well inside to
    // well beyond the TLB's reach: every access and probe must give
    // the reference's answer.
    Pcg32 rng(12, 34);
    std::uint64_t accesses = 0;
    for (int round = 0; round < 24; ++round) {
        std::size_t n = round < 2 ? (round == 0 ? 1 : 128)
                                  : rng.range(1, 128);
        std::uint64_t pages = rng.range(1, 3 * n);
        Tlb tlb(n, 8192);
        ScanTlb ref(n, 8192);
        for (int i = 0; i < 6000; ++i) {
            Addr addr = rng.range(0, pages - 1) * 8192 + rng.range(0, 8191);
            auto tid = static_cast<ThreadId>(rng.nextBounded(2));
            if (rng.chance(0.2)) {
                ASSERT_EQ(tlb.probe(addr, tid), ref.probe(addr, tid))
                    << "size " << n << " step " << i;
            } else {
                ASSERT_EQ(tlb.access(addr, tid), ref.access(addr, tid))
                    << "size " << n << " step " << i;
                ++accesses;
            }
        }
        if (round % 4 == 3) {
            // A fresh TLB starts with an empty index.
            tlb = Tlb(n, 8192);
            ref = ScanTlb(n, 8192);
            EXPECT_FALSE(tlb.probe(0, 0));
            EXPECT_EQ(tlb.hits() + tlb.misses(), 0u);
        }
    }
    EXPECT_GE(accesses, 100000u);
}

TEST(Hierarchy, LatencyByLevel)
{
    MemoryHierarchy mem;

    // Cold access: misses everywhere.
    auto r0 = mem.access(0x100, 0, false, 1);
    EXPECT_EQ(r0.level, MemLevel::Memory);
    EXPECT_EQ(r0.latency, 3u + 12u + 150u);
    EXPECT_TRUE(r0.tlbMiss);

    // Now L1 resident.
    auto r1 = mem.access(0x100, 0, false, 2);
    EXPECT_EQ(r1.level, MemLevel::L1);
    EXPECT_EQ(r1.latency, 3u);
    EXPECT_FALSE(r1.tlbMiss);
    EXPECT_TRUE(r1.isPredictableHit());
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy mem;
    // Fill well beyond L1 (64 KiB) but within L2 (1 MiB), one line
    // every 64 cycles so no miss waits for an MSHR.
    for (Addr a = 0; a < 256 * 1024; a += 64)
        mem.access(a, 0, false, a + 1);
    // Address 0 was evicted from L1 but lives in L2.
    auto r = mem.access(0x0, 0, false, 1 << 20);
    EXPECT_EQ(r.level, MemLevel::L2);
    EXPECT_EQ(r.latency, 3u + 12u);
}

TEST(Hierarchy, SameCycleSameBankLoadsConflict)
{
    MemoryHierarchy mem;
    // Warm both lines first (32 banks of 64-byte lines).
    mem.access(0x0, 0, false, 1);
    mem.access(0x0 + 32 * 64, 0, false, 2);

    auto a = mem.access(0x0, 0, false, 10);
    auto b = mem.access(0x0 + 32 * 64, 0, false, 10); // same bank
    EXPECT_FALSE(a.bankConflict);
    EXPECT_TRUE(b.bankConflict);
    EXPECT_EQ(b.latency, a.latency + 1);
    EXPECT_FALSE(b.isPredictableHit());

    // A new cycle clears the arbitration.
    auto c = mem.access(0x0 + 32 * 64, 0, false, 11);
    EXPECT_FALSE(c.bankConflict);
}

TEST(Hierarchy, StoresDoNotContendForLoadBanks)
{
    MemoryHierarchy mem;
    mem.access(0x0, 0, false, 1);
    mem.access(0x0, 0, true, 5);  // store
    auto r = mem.access(0x0, 0, false, 5); // same cycle load
    EXPECT_FALSE(r.bankConflict);
}

TEST(Hierarchy, DifferentBanksNoConflict)
{
    MemoryHierarchy mem;
    mem.access(0x0, 0, false, 1);
    mem.access(0x40, 0, false, 1); // adjacent line, different bank
    EXPECT_EQ(mem.bankConflicts(), 0u);
}

TEST(Hierarchy, LevelNames)
{
    EXPECT_STREQ(memLevelName(MemLevel::L1), "L1");
    EXPECT_STREQ(memLevelName(MemLevel::L2), "L2");
    EXPECT_STREQ(memLevelName(MemLevel::Memory), "Memory");
}
