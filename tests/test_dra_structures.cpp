/**
 * @file
 * Tests for the DRA hardware structures: RPFT, insertion tables,
 * cluster register caches, and the assembled DraUnit protocol.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "dra/crc.hh"
#include "dra/dra_unit.hh"
#include "dra/insertion_table.hh"
#include "dra/rpft.hh"

using namespace loopsim;

TEST(Rpft, SetClearTest)
{
    Rpft rpft(16);
    EXPECT_FALSE(rpft.test(3));
    rpft.set(3);
    EXPECT_TRUE(rpft.test(3));
    EXPECT_EQ(rpft.popcount(), 1u);
    rpft.clear(3);
    EXPECT_FALSE(rpft.test(3));
    rpft.set(1);
    rpft.set(2);
    rpft = Rpft(16);
    EXPECT_EQ(rpft.popcount(), 0u);
    EXPECT_THROW(rpft.test(16), PanicError);
}

TEST(InsertionTable, CountsAndSaturates)
{
    InsertionTable tbl(8, 2);
    EXPECT_EQ(tbl.maxCount(), 3u);
    for (int i = 0; i < 5; ++i)
        tbl.increment(4);
    EXPECT_EQ(tbl.count(4), 3u);
    EXPECT_EQ(tbl.saturationDrops(), 2u);
    tbl.decrement(4);
    EXPECT_EQ(tbl.count(4), 2u);
    tbl.clear(4);
    EXPECT_EQ(tbl.count(4), 0u);
    tbl.decrement(4); // underflow is clamped
    EXPECT_EQ(tbl.count(4), 0u);
}

TEST(InsertionTable, WidthControlsSaturation)
{
    InsertionTable narrow(4, 1);
    InsertionTable wide(4, 3);
    for (int i = 0; i < 4; ++i) {
        narrow.increment(0);
        wide.increment(0);
    }
    EXPECT_EQ(narrow.count(0), 1u);
    EXPECT_EQ(wide.count(0), 4u);
    EXPECT_EQ(narrow.saturationDrops(), 3u);
    EXPECT_EQ(wide.saturationDrops(), 0u);
}

TEST(InsertionTable, BadParamsFatal)
{
    EXPECT_THROW(InsertionTable(0, 2), FatalError);
    EXPECT_THROW(InsertionTable(8, 0), FatalError);
    EXPECT_THROW(InsertionTable(8, 9), FatalError);
}

TEST(Crc, LookupAfterInsert)
{
    ClusterRegisterCache crc(16, 4, CrcRepl::Fifo);
    EXPECT_FALSE(crc.lookup(7));
    crc.insert(7);
    EXPECT_TRUE(crc.lookup(7));
    EXPECT_TRUE(crc.lookup(7)); // hits do not consume the entry
    EXPECT_EQ(crc.hits(), 2u);
    EXPECT_EQ(crc.misses(), 1u);
    EXPECT_EQ(crc.occupancy(), 1u);
}

TEST(Crc, FifoEvictsOldestInsertion)
{
    ClusterRegisterCache crc(16, 2, CrcRepl::Fifo);
    crc.insert(1);
    crc.insert(2);
    crc.lookup(1); // reuse must NOT refresh under FIFO
    crc.insert(3); // evicts 1
    EXPECT_FALSE(crc.lookup(1));
    EXPECT_TRUE(crc.lookup(2));
    EXPECT_TRUE(crc.lookup(3));
    EXPECT_EQ(crc.evictions(), 1u);
}

TEST(Crc, LruKeepsRecentlyRead)
{
    ClusterRegisterCache crc(16, 2, CrcRepl::Lru);
    crc.insert(1);
    crc.insert(2);
    crc.lookup(1); // refreshes 1
    crc.insert(3); // evicts 2
    EXPECT_TRUE(crc.lookup(1));
    EXPECT_FALSE(crc.lookup(2));
}

TEST(Crc, ReinsertRefreshesExistingEntry)
{
    ClusterRegisterCache crc(16, 2, CrcRepl::Fifo);
    crc.insert(1);
    crc.insert(2);
    crc.insert(1); // refresh, no duplicate / eviction
    EXPECT_EQ(crc.occupancy(), 2u);
    EXPECT_EQ(crc.evictions(), 0u);
    crc.insert(3); // now evicts 2 (oldest stamp)
    EXPECT_TRUE(crc.lookup(1));
    EXPECT_FALSE(crc.lookup(2));
}

TEST(Crc, InvalidateOnReallocation)
{
    ClusterRegisterCache crc(16, 4, CrcRepl::Fifo);
    crc.insert(5);
    crc.invalidate(5);
    EXPECT_FALSE(crc.lookup(5));
    EXPECT_EQ(crc.invalidations(), 1u);
    crc.invalidate(6); // absent: no-op
    EXPECT_EQ(crc.invalidations(), 1u);
}

TEST(Crc, ParseReplAndErrors)
{
    EXPECT_EQ(parseCrcRepl("FIFO"), CrcRepl::Fifo);
    EXPECT_EQ(parseCrcRepl("lru"), CrcRepl::Lru);
    EXPECT_THROW(parseCrcRepl("rrip"), FatalError);
    EXPECT_THROW(ClusterRegisterCache(16, 0, CrcRepl::Fifo), FatalError);
    EXPECT_THROW(ClusterRegisterCache(0, 4, CrcRepl::Fifo), FatalError);
}

TEST(Crc, RegisterOutOfRangePanics)
{
    ClusterRegisterCache crc(16, 4, CrcRepl::Fifo);
    EXPECT_THROW(crc.lookup(16), PanicError);
    EXPECT_THROW(crc.insert(16), PanicError);
    EXPECT_THROW(crc.invalidate(16), PanicError);
}

namespace
{

DraUnit
makeDra()
{
    return DraUnit(32, 4, 4, CrcRepl::Fifo, 2);
}

} // anonymous namespace

TEST(DraUnit, CompletedOperandIsPreRead)
{
    DraUnit dra = makeDra();
    dra.writeback(3); // value sits in the RF
    EXPECT_TRUE(dra.renameSource(3, 0));
    EXPECT_EQ(dra.preReads(), 1u);
    // Pre-read sources never enter the insertion table.
    EXPECT_EQ(dra.insertionTable(0).count(3), 0u);
}

TEST(DraUnit, InFlightSourceRegistersInSlottedCluster)
{
    DraUnit dra = makeDra();
    EXPECT_FALSE(dra.renameSource(3, 2));
    EXPECT_EQ(dra.insertionTable(2).count(3), 1u);
    EXPECT_EQ(dra.insertionTable(0).count(3), 0u); // other clusters no
}

TEST(DraUnit, WritebackInsertsOnlyWhereConsumersWait)
{
    DraUnit dra = makeDra();
    dra.renameSource(3, 1);
    dra.renameSource(3, 1);
    dra.renameSource(3, 2);
    dra.writeback(3);
    EXPECT_TRUE(dra.rpft().test(3));
    EXPECT_TRUE(dra.lookupCached(3, 1));
    EXPECT_TRUE(dra.lookupCached(3, 2));
    EXPECT_FALSE(dra.lookupCached(3, 0));
    EXPECT_FALSE(dra.lookupCached(3, 3));
    // Consumer counts were consumed by the insertion.
    EXPECT_EQ(dra.insertionTable(1).count(3), 0u);
}

TEST(DraUnit, ForwardingHitsDrainTheCount)
{
    // The paper's saturation pathology (§5.4): more consumers than the
    // counter can express, and the forwarding hits of the early ones
    // zero the count, so the value never enters the CRC.
    DraUnit dra = makeDra();
    for (int i = 0; i < 5; ++i)
        dra.renameSource(7, 0); // count saturates at 3
    EXPECT_EQ(dra.insertionTable(0).count(7), 3u);
    for (int i = 0; i < 3; ++i)
        dra.forwardHit(7, 0); // first three consumers forward
    EXPECT_EQ(dra.insertionTable(0).count(7), 0u);
    dra.writeback(7);
    // Remaining consumers take an operand miss.
    EXPECT_FALSE(dra.lookupCached(7, 0));
}

TEST(DraUnit, RenameDestInvalidatesEverything)
{
    DraUnit dra = makeDra();
    dra.renameSource(9, 0);
    dra.writeback(9);
    EXPECT_TRUE(dra.rpft().test(9));
    EXPECT_TRUE(dra.lookupCached(9, 0));

    dra.renameDest(9); // register reallocated (§5.5)
    EXPECT_FALSE(dra.rpft().test(9));
    EXPECT_FALSE(dra.lookupCached(9, 0));
    EXPECT_EQ(dra.insertionTable(0).count(9), 0u);
}

TEST(DraUnit, RegFreedCleansUp)
{
    DraUnit dra = makeDra();
    dra.renameSource(9, 1);
    dra.writeback(9);
    dra.regFreed(9);
    EXPECT_FALSE(dra.rpft().test(9));
    EXPECT_FALSE(dra.lookupCached(9, 1));
}

TEST(DraUnit, AggregateCounters)
{
    DraUnit dra = makeDra();
    dra.renameSource(1, 0);
    dra.renameSource(2, 1);
    dra.writeback(1);
    dra.writeback(2);
    EXPECT_EQ(dra.crcInsertions(), 2u);
    for (int i = 0; i < 6; ++i)
        dra.renameSource(3, 2);
    EXPECT_EQ(dra.saturationDrops(), 3u);
    dra = makeDra();
    EXPECT_EQ(dra.crcInsertions(), 0u);
    EXPECT_EQ(dra.preReads(), 0u);
}

TEST(DraUnit, ClusterBoundsChecked)
{
    DraUnit dra = makeDra();
    EXPECT_THROW(dra.renameSource(1, 4), PanicError);
    EXPECT_THROW(dra.lookupCached(1, 9), PanicError);
    EXPECT_THROW(dra.crc(4), PanicError);
}

namespace
{

/**
 * The CRC as a plain slot scan: the model before the reverse index,
 * kept here as the differential reference.
 */
class ScanCrc
{
  public:
    ScanCrc(unsigned num_entries, CrcRepl repl_policy, Cycle timeout_cycles)
        : repl(repl_policy), timeout(timeout_cycles), store(num_entries)
    {
    }

    bool
    lookup(PhysReg reg, Cycle now)
    {
        Entry *e = find(reg);
        if (e && timeout > 0 && now > e->insertedAt + timeout) {
            e->valid = false;
            ++timeouts;
            e = nullptr;
        }
        if (e) {
            ++hits;
            if (repl == CrcRepl::Lru)
                e->stamp = ++stamp;
            return true;
        }
        ++misses;
        return false;
    }

    void
    insert(PhysReg reg, Cycle now)
    {
        ++insertions;
        Entry *e = find(reg);
        if (e) {
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
        if (victim->valid)
            ++evictions;
        *victim = Entry{true, reg, ++stamp, now};
    }

    void
    invalidate(PhysReg reg)
    {
        if (Entry *e = find(reg)) {
            e->valid = false;
            ++invalidations;
        }
    }

    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const auto &e : store)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0,
                  invalidations = 0, timeouts = 0;

  private:
    struct Entry
    {
        bool valid = false;
        PhysReg reg = invalidPhysReg;
        std::uint64_t stamp = 0;
        Cycle insertedAt = 0;
    };

    Entry *
    find(PhysReg reg)
    {
        for (auto &e : store) {
            if (e.valid && e.reg == reg)
                return &e;
        }
        return nullptr;
    }

    CrcRepl repl;
    Cycle timeout;
    std::vector<Entry> store;
    std::uint64_t stamp = 0;
};

void
expectSameCrc(const ClusterRegisterCache &crc, const ScanCrc &ref)
{
    ASSERT_EQ(crc.occupancy(), ref.occupancy());
    ASSERT_EQ(crc.hits(), ref.hits);
    ASSERT_EQ(crc.misses(), ref.misses);
    ASSERT_EQ(crc.insertions(), ref.insertions);
    ASSERT_EQ(crc.evictions(), ref.evictions);
    ASSERT_EQ(crc.invalidations(), ref.invalidations);
    ASSERT_EQ(crc.timeouts(), ref.timeouts);
}

/** A register drawn mostly from a hot set a few times the CRC's size,
 *  so hits, refreshes and evictions all happen, and otherwise from all
 *  @p num_regs registers. */
PhysReg
drawReg(Pcg32 &rng, unsigned hot, unsigned num_regs)
{
    unsigned bound = rng.chance(0.8) ? std::min(hot, num_regs) : num_regs;
    return static_cast<PhysReg>(rng.nextBounded(bound));
}

/** The DraUnit as it was before the cluster masks: every broadcast
 *  visits every cluster. */
class AllClustersDra
{
  public:
    AllClustersDra(unsigned num_phys_regs, unsigned num_clusters,
                   unsigned crc_entries, CrcRepl crc_repl,
                   unsigned table_bits, Cycle crc_timeout)
        : filter(num_phys_regs)
    {
        for (unsigned c = 0; c < num_clusters; ++c) {
            tables.emplace_back(num_phys_regs, table_bits);
            caches.emplace_back(crc_entries, crc_repl, crc_timeout);
        }
    }

    bool
    renameSource(PhysReg reg, ClusterId cluster)
    {
        if (filter.test(reg)) {
            ++preReads;
            return true;
        }
        tables[cluster].increment(reg);
        return false;
    }

    void
    renameDest(PhysReg reg)
    {
        filter.clear(reg);
        for (auto &t : tables)
            t.clear(reg);
        for (auto &c : caches)
            c.invalidate(reg);
    }

    void forwardHit(PhysReg reg, ClusterId c) { tables[c].decrement(reg); }

    bool
    lookupCached(PhysReg reg, ClusterId c, Cycle now)
    {
        return caches[c].lookup(reg, now);
    }

    void
    writeback(PhysReg reg, Cycle now)
    {
        filter.set(reg);
        for (std::size_t c = 0; c < tables.size(); ++c) {
            if (tables[c].count(reg) > 0) {
                caches[c].insert(reg, now);
                tables[c].clear(reg);
            }
        }
    }

    void regFreed(PhysReg reg) { renameDest(reg); }

    Rpft filter;
    std::vector<InsertionTable> tables;
    std::vector<ScanCrc> caches;
    std::uint64_t preReads = 0;
};

/** Compare every counter, and the RPFT bit and every cluster's table
 *  count of registers [@p reg_lo, @p reg_hi). */
void
expectSameDra(const DraUnit &dra, const AllClustersDra &ref,
              unsigned reg_lo, unsigned reg_hi)
{
    ASSERT_EQ(dra.preReads(), ref.preReads);
    std::uint64_t insertions = 0, evictions = 0, drops = 0;
    for (std::size_t c = 0; c < ref.caches.size(); ++c) {
        auto cluster = static_cast<ClusterId>(c);
        SCOPED_TRACE("cluster " + std::to_string(c));
        expectSameCrc(dra.crc(cluster), ref.caches[c]);
        insertions += ref.caches[c].insertions;
        evictions += ref.caches[c].evictions;
        drops += ref.tables[c].saturationDrops();
        for (unsigned r = reg_lo; r < reg_hi; ++r) {
            auto reg = static_cast<PhysReg>(r);
            ASSERT_EQ(dra.insertionTable(cluster).count(reg),
                      ref.tables[c].count(reg))
                << "reg " << r;
        }
    }
    ASSERT_EQ(dra.crcInsertions(), insertions);
    ASSERT_EQ(dra.crcEvictions(), evictions);
    ASSERT_EQ(dra.saturationDrops(), drops);
    for (unsigned r = reg_lo; r < reg_hi; ++r) {
        auto reg = static_cast<PhysReg>(r);
        ASSERT_EQ(dra.rpft().test(reg), ref.filter.test(reg));
    }
}

} // anonymous namespace

TEST(CrcDifferential, IndexMatchesSlotScan)
{
    constexpr unsigned numRegs = 512;
    constexpr int callsPerCase = 8000;
    Pcg32 rng(2002);
    for (CrcRepl repl : {CrcRepl::Fifo, CrcRepl::Lru}) {
        for (Cycle timeout : {Cycle{0}, Cycle{6}}) {
            for (unsigned entries : {1u, 4u, 16u, 64u}) {
                SCOPED_TRACE("repl " + std::to_string(int(repl)) +
                             " timeout " + std::to_string(timeout) +
                             " entries " + std::to_string(entries));
                ClusterRegisterCache crc(numRegs, entries, repl, timeout);
                ScanCrc ref(entries, repl, timeout);
                Cycle now = 0;
                for (int i = 0; i < callsPerCase; ++i) {
                    now += rng.nextBounded(3);
                    PhysReg reg = drawReg(rng, 3 * entries, numRegs);
                    unsigned pick = rng.nextBounded(1000);
                    if (pick < 450) {
                        ASSERT_EQ(crc.lookup(reg, now), ref.lookup(reg, now));
                    } else if (pick < 800) {
                        crc.insert(reg, now);
                        ref.insert(reg, now);
                    } else {
                        crc.invalidate(reg);
                        ref.invalidate(reg);
                    }
                    expectSameCrc(crc, ref);
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(DraDifferential, ClusterMasksMatchAllClusterBroadcasts)
{
    // 72 clusters spill the masks into a second word.
    constexpr unsigned numRegs = 96;
    constexpr int calls = 40000;
    for (unsigned clusters : {8u, 16u, 72u}) {
        for (Cycle timeout : {Cycle{0}, Cycle{10}}) {
            SCOPED_TRACE("clusters " + std::to_string(clusters) +
                         " timeout " + std::to_string(timeout));
            Pcg32 rng(clusters * 31 + timeout);
            CrcRepl repl = timeout > 0 ? CrcRepl::Lru : CrcRepl::Fifo;
            DraUnit dra(numRegs, clusters, 4, repl, 2, timeout);
            AllClustersDra ref(numRegs, clusters, 4, repl, 2, timeout);
            Cycle now = 0;
            for (int i = 0; i < calls; ++i) {
                now += rng.nextBounded(2);
                auto reg = static_cast<PhysReg>(rng.nextBounded(numRegs));
                auto cluster = static_cast<ClusterId>(
                    rng.nextBounded(clusters));
                unsigned pick = rng.nextBounded(1000);
                if (pick < 300) {
                    ASSERT_EQ(dra.renameSource(reg, cluster),
                              ref.renameSource(reg, cluster));
                } else if (pick < 420) {
                    dra.forwardHit(reg, cluster);
                    ref.forwardHit(reg, cluster);
                } else if (pick < 620) {
                    ASSERT_EQ(dra.lookupCached(reg, cluster, now),
                              ref.lookupCached(reg, cluster, now));
                } else if (pick < 820) {
                    dra.writeback(reg, now);
                    ref.writeback(reg, now);
                } else if (pick < 910) {
                    dra.renameDest(reg);
                    ref.renameDest(reg);
                } else {
                    dra.regFreed(reg);
                    ref.regFreed(reg);
                }
                // A call changes only its own register's RPFT bit and
                // table counts, so checking that register after every
                // call, with every CRC counter, catches a divergence at
                // once.
                expectSameDra(dra, ref, reg, reg + 1u);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
            expectSameDra(dra, ref, 0, numRegs);
        }
    }
}
