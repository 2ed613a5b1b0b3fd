/**
 * @file
 * Tests for the load/store reorder trap loop: the MemDepPredictor wait
 * table and the end-to-end trap/retrain behaviour (paper Figure 2,
 * "memory trap loop"), plus the §5.5 CRC timeout alternative.
 */

#include <gtest/gtest.h>

#include "core/mem_dep.hh"
#include "core_test_util.hh"
#include "dra/crc.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

TEST(MemDepPredictor, TrainsAndWaits)
{
    MemDepPredictor pred(256, 0);
    EXPECT_FALSE(pred.shouldWait(0x100, 10));
    pred.trainTrap(0x100);
    EXPECT_TRUE(pred.shouldWait(0x100, 11));
    EXPECT_FALSE(pred.shouldWait(0x104, 11)); // different pc
    EXPECT_EQ(pred.traps(), 1u);
    EXPECT_GE(pred.waits(), 1u);
}

TEST(MemDepPredictor, PeriodicClearForgets)
{
    MemDepPredictor pred(256, 100);
    pred.trainTrap(0x100);
    EXPECT_TRUE(pred.shouldWait(0x100, 50));
    EXPECT_FALSE(pred.shouldWait(0x100, 150)); // cleared
}

TEST(MemDepPredictor, NoClearWhenDisabled)
{
    MemDepPredictor pred(256, 0);
    pred.trainTrap(0x100);
    EXPECT_TRUE(pred.shouldWait(0x100, 1u << 30));
}

TEST(MemDepPredictor, ResetAndErrors)
{
    MemDepPredictor pred(256, 0);
    pred.trainTrap(0x100);
    pred = MemDepPredictor(256, 0);
    EXPECT_FALSE(pred.shouldWait(0x100, 1));
    EXPECT_EQ(pred.traps(), 0u);
    EXPECT_THROW(MemDepPredictor(100, 0), FatalError);
    EXPECT_THROW(MemDepPredictor(0, 0), FatalError);
}

namespace
{

/**
 * A kernel where a load overtakes an older store to the same address:
 * the store's data is delayed behind a chain while the load's address
 * is ready immediately, so the load reads first.
 */
std::vector<MicroOp>
reorderKernel(Addr addr)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1)); // address base, ready early
    // Warm the TLB page and line.
    ops.push_back(storeOp(1, 1, addr));
    // Long chain producing the store data.
    ops.push_back(alu(2));
    for (int i = 0; i < 20; ++i)
        ops.push_back(alu(2, 2));
    // The conflicting store: waits for r2 (the chain).
    ops.push_back(storeOp(1, 2, addr));
    // The load: address ready immediately; executes before the store.
    ops.push_back(load(3, 1, addr));
    ops.push_back(alu(4, 3));
    return ops;
}

} // anonymous namespace

TEST(MemoryOrdering, ReorderTrapSquashesAndRetires)
{
    auto ops = reorderKernel(0x6000000);
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_GE(h.stat("memOrderTraps"), 1.0);
    EXPECT_GT(h.stat("squashed"), 0.0);
}

TEST(MemoryOrdering, DisabledModeNeverTraps)
{
    Config cfg;
    cfg.setBool("core.memdep.enable", false);
    auto ops = reorderKernel(0x6000000);
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_EQ(h.stat("memOrderTraps"), 0.0);
}

TEST(MemoryOrdering, WaitTableSuppressesRepeatTraps)
{
    // The same conflicting load PC recurs; after the first trap the
    // wait table holds the load until the store has executed, so the
    // trap count stays far below the recurrence count.
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x6000000));
    for (int rep = 0; rep < 20; ++rep) {
        ops.push_back(alu(2));
        for (int i = 0; i < 12; ++i)
            ops.push_back(alu(2, 2));
        MicroOp st = storeOp(1, 2, 0x6000000);
        st.pc = 0x9000; // stable static sites
        ops.push_back(st);
        MicroOp ld = load(3, 1, 0x6000000);
        ld.pc = 0x9004;
        ops.push_back(ld);
        ops.push_back(alu(4, 3));
    }
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_GE(h.stat("memOrderTraps"), 1.0);
    EXPECT_LE(h.stat("memOrderTraps"), 6.0); // suppressed after training
}

TEST(MemoryOrdering, DifferentDwordsDoNotConflict)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x6000000));
    ops.push_back(alu(2));
    for (int i = 0; i < 20; ++i)
        ops.push_back(alu(2, 2));
    ops.push_back(storeOp(1, 2, 0x6000000));
    ops.push_back(load(3, 1, 0x6000008)); // adjacent dword
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.stat("memOrderTraps"), 0.0);
}

namespace
{

/** A load with a fixed pc, so the wait table names it. */
MicroOp
loadAt(Addr pc, ArchReg dest, ArchReg base, Addr addr)
{
    MicroOp op = load(dest, base, addr);
    op.pc = pc;
    return op;
}

/** Has a reorder trap trained the wait bit of the load at @p pc? */
bool
trapped(const CoreHarness &h, Addr pc)
{
    return h.core->memDependence()->wouldWait(pc);
}

} // anonymous namespace

TEST(MemoryOrdering, OldestYoungerLoadIsTheVictim)
{
    // Audit on: every trap check is cross-checked against a walk of
    // the whole ROB.
    audit::Scoped audit(true);
    // Two loads younger than the late store, both to its dword and
    // both performed before it executes: the older one restarts.
    auto ops = reorderKernel(0x6000000);
    ops.resize(ops.size() - 2); // up to and including the late store
    ops.push_back(loadAt(0x9000, 3, 1, 0x6000000));
    ops.push_back(loadAt(0x9004, 5, 1, 0x6000004));
    ops.push_back(alu(4, 3));
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_EQ(h.stat("memOrderTraps"), 1.0);
    EXPECT_TRUE(trapped(h, 0x9000));
    EXPECT_FALSE(trapped(h, 0x9004));
}

TEST(MemoryOrdering, KilledThenReperformedLoadIsTheVictim)
{
    audit::Scoped audit(true);
    // 21264-style recovery kills everything issued in a missing load's
    // shadow. The conflicting load performs in that shadow, is killed
    // (its first access no longer counts) and performs again before
    // the store executes: it is the victim, exactly once. Everything
    // hangs off the first load, so nothing runs before its TLB trap
    // has squashed and refetched the rest.
    Config cfg;
    cfg.setBool("core.kill_all_in_shadow", true);
    std::vector<MicroOp> ops;
    ops.push_back(alu(1));
    ops.push_back(load(9, 1, 0x6000000)); // warms the page and line
    ops.push_back(alu(2, 9));
    for (int i = 0; i < 40; ++i)
        ops.push_back(alu(2, 2));          // late store data
    ops.push_back(load(6, 9, 0x6001000)); // cold line: misses
    ops.push_back(alu(7, 9));             // issues the load below later
    ops.push_back(storeOp(1, 2, 0x6000000));
    ops.push_back(loadAt(0x9000, 3, 7, 0x6000000));
    ops.push_back(alu(4, 3));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_GT(h.stat("loadKilledOps"), 0.0);
    EXPECT_EQ(h.stat("memOrderTraps"), 1.0);
    EXPECT_TRUE(trapped(h, 0x9000));
}

TEST(MemoryOrdering, OtherThreadsLoadIsNeverTheVictim)
{
    audit::Scoped audit(true);
    // Thread 1's loads hit the dword of thread 0's late store and
    // perform long before it, and a longer chain ahead of them keeps
    // them in the ROB until after it: ordering is per thread, so no
    // trap.
    std::vector<MicroOp> t0;
    t0.push_back(alu(1));
    t0.push_back(storeOp(1, 1, 0x6000000));
    t0.push_back(alu(2));
    for (int i = 0; i < 20; ++i)
        t0.push_back(alu(2, 2));
    t0.push_back(storeOp(1, 2, 0x6000000));
    std::vector<MicroOp> t1;
    t1.push_back(alu(1));
    t1.push_back(alu(5));
    for (int i = 0; i < 60; ++i)
        t1.push_back(alu(5, 5));
    for (int i = 0; i < 8; ++i)
        t1.push_back(loadAt(0x9000 + 4 * i, 3, 1, 0x6000000));
    auto h = makeSmtHarness(t0, t1);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), t0.size() + t1.size());
    EXPECT_EQ(h.stat("memOrderTraps"), 0.0);

    // Control: the same loads in the store's own thread do trap.
    std::vector<MicroOp> same = t0;
    same.insert(same.end(), t1.end() - 8, t1.end());
    auto c = makeSmtHarness(same, {alu(1)});
    c.run();
    EXPECT_GE(c.stat("memOrderTraps"), 1.0);
}

TEST(MemoryOrdering, TrapsAreRareOnProfiles)
{
    // Statistical sanity: reorder traps exist but stay a small
    // fraction of loads under the wait-table predictor.
    Config cfg;
    SyntheticTraceGenerator gen(spec95Profile("swim"), 0, 30000);
    std::vector<TraceSource *> srcs{&gen};
    Core core(cfg, srcs);
    Simulator sim;
    sim.add(&core);
    sim.run(5000000);
    ASSERT_FALSE(sim.hitCycleLimit());
    double traps = exportedStat(core, "memOrderTraps");
    EXPECT_LT(traps, 300.0); // < 1% of ~10k loads
}

TEST(CrcTimeout, EntriesExpire)
{
    ClusterRegisterCache crc(16, 4, CrcRepl::Fifo, 50);
    crc.insert(7, 100);
    EXPECT_TRUE(crc.lookup(7, 120));
    EXPECT_FALSE(crc.lookup(7, 151)); // timed out
    EXPECT_EQ(crc.timeouts(), 1u);
    // The expired entry is gone for good.
    EXPECT_FALSE(crc.lookup(7, 120));
}

TEST(CrcTimeout, ReinsertRefreshesAge)
{
    ClusterRegisterCache crc(16, 4, CrcRepl::Fifo, 50);
    crc.insert(7, 100);
    crc.insert(7, 140); // refresh
    EXPECT_TRUE(crc.lookup(7, 170));
    EXPECT_EQ(crc.timeouts(), 0u);
}

TEST(CrcTimeout, ZeroTimeoutNeverExpires)
{
    ClusterRegisterCache crc(16, 4, CrcRepl::Fifo, 0);
    crc.insert(7, 1);
    EXPECT_TRUE(crc.lookup(7, 1u << 30));
}

TEST(CrcTimeout, EndToEndConfig)
{
    Config cfg;
    cfg.setBool("dra.enable", true);
    cfg.setUint("dra.crc.timeout", 64);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 300; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i % 40),
                          static_cast<ArchReg>((i + 7) % 40)));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 300u);
}
