/**
 * @file
 * Tests for the substrate extensions: memory barriers (the paper's §1
 * stall-managed loop) and the MSHR limit on memory-level parallelism.
 */

#include <gtest/gtest.h>

#include "core_test_util.hh"
#include "mem/hierarchy.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

namespace
{

MicroOp
barrier()
{
    MicroOp op;
    op.opClass = OpClass::MemBarrier;
    return op;
}

} // anonymous namespace

TEST(MemBarrier, OpClassBasics)
{
    MicroOp b = barrier();
    EXPECT_TRUE(b.isBarrier());
    EXPECT_FALSE(b.isBranch());
    EXPECT_EQ(b.numSrcs(), 0u);
    EXPECT_STREQ(opClassName(OpClass::MemBarrier), "MemBarrier");
}

TEST(MemBarrier, DrainsThePipelineBeforeProceeding)
{
    // ops, barrier, ops: everything retires, and the barrier costs a
    // full pipeline drain, so the run is much slower than without it.
    std::vector<MicroOp> with;
    std::vector<MicroOp> without;
    for (int rep = 0; rep < 10; ++rep) {
        for (int i = 0; i < 16; ++i) {
            with.push_back(alu(static_cast<ArchReg>(i % 40)));
            without.push_back(alu(static_cast<ArchReg>(i % 40)));
        }
        with.push_back(barrier());
        without.push_back(nop());
    }
    auto h_with = makeHarness(with);
    h_with.run();
    auto h_without = makeHarness(without);
    h_without.run();
    EXPECT_EQ(h_with.core->retiredOps(), with.size());
    // Each barrier costs roughly a pipeline refill (~20 cycles).
    EXPECT_GT(h_with.core->cyclesRun(),
              h_without.core->cyclesRun() + 10 * 12);
}

TEST(MemBarrier, BarrierFirstDoesNotDeadlock)
{
    std::vector<MicroOp> ops;
    ops.push_back(barrier());
    ops.push_back(alu(1));
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 2u);
}

TEST(MemBarrier, ProfileKnobGeneratesBarriers)
{
    BenchmarkProfile p = spec95Profile("m88ksim");
    p.barrierFrac = 0.01;
    p.validate();
    SyntheticTraceGenerator gen(p, 0, 20000);
    MicroOp op;
    int barriers = 0;
    while (gen.next(op))
        barriers += op.isBarrier() ? 1 : 0;
    EXPECT_NEAR(barriers / 20000.0, 0.01, 0.005);
}

TEST(MemBarrier, ProfileWorkloadRunsEndToEnd)
{
    BenchmarkProfile p = spec95Profile("m88ksim");
    p.barrierFrac = 0.005;
    SyntheticTraceGenerator gen(p, 0, 10000);
    std::vector<TraceSource *> srcs{&gen};
    Config cfg;
    Core core(cfg, srcs);
    Simulator sim;
    sim.add(&core);
    sim.run(5000000);
    ASSERT_FALSE(sim.hitCycleLimit());
    EXPECT_EQ(core.retiredOps(), 10000u);
    core.checkQuiescent();
}

TEST(Mshr, LimitSerialisesMissBursts)
{
    // Ten same-cycle misses with 2 MSHRs must queue: the last fill
    // completes much later than with 16 MSHRs.
    auto fill_time = [](unsigned mshrs) {
        Config cfg;
        cfg.setUint("mem.mshrs", mshrs);
        // A fresh hierarchy: every line misses.
        MemoryHierarchy mem(cfg);
        unsigned max_latency = 0;
        for (int i = 0; i < 10; ++i) {
            auto r = mem.access(0x20000 + i * 64, 0, false, 5);
            max_latency = std::max(max_latency, r.latency);
        }
        return max_latency;
    };
    EXPECT_GT(fill_time(2), fill_time(16) + 100);
}

TEST(Mshr, StallsAreCounted)
{
    Config cfg;
    cfg.setUint("mem.mshrs", 1);
    MemoryHierarchy mem(cfg);
    mem.access(0x10000, 0, false, 1);
    mem.access(0x20000, 0, false, 1); // second miss waits for the first
    EXPECT_GT(mem.mshrStallCycles(), 0u);
}

TEST(Mshr, HitsNeverWaitForMshrs)
{
    Config cfg;
    cfg.setUint("mem.mshrs", 1);
    MemoryHierarchy mem(cfg);
    mem.access(0x10000, 0, false, 1); // miss occupies the single MSHR
    mem.access(0x20000, 0, false, 1); // miss queues
    auto hit = mem.access(0x10000, 0, false, 2);
    EXPECT_EQ(hit.level, MemLevel::L1);
    EXPECT_LE(hit.latency, 4u);
}
