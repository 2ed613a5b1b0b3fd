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
    // Seventeen same-cycle misses overflow the 16 MSHRs: the 17th
    // fill waits for the first to retire, so it completes much later
    // than the 16th.
    MemoryHierarchy mem;
    std::vector<unsigned> latency;
    for (int i = 0; i < 17; ++i)
        latency.push_back(mem.access(0x20000 + i * 64, 0, false, 5).latency);
    EXPECT_EQ(latency[15], latency[0]);
    EXPECT_GT(latency[16], latency[15] + 100);
}

TEST(Mshr, StallsAreCounted)
{
    MemoryHierarchy mem;
    for (int i = 0; i < 16; ++i)
        mem.access(0x10000 + i * 64, 0, false, 1);
    EXPECT_EQ(mem.mshrStallCycles(), 0u);
    // The 17th miss waits for the first.
    mem.access(0x20000, 0, false, 1);
    EXPECT_GT(mem.mshrStallCycles(), 0u);
}

TEST(Mshr, HitsNeverWaitForMshrs)
{
    MemoryHierarchy mem;
    // Sixteen misses occupy every MSHR and a 17th queues.
    for (int i = 0; i < 17; ++i)
        mem.access(0x10000 + i * 64, 0, false, 1);
    auto hit = mem.access(0x10000, 0, false, 2);
    EXPECT_EQ(hit.level, MemLevel::L1);
    EXPECT_LE(hit.latency, 4u);
}
