/**
 * @file
 * Behavioural tests of the core pipeline using hand-written kernels:
 * basic flow, dependence timing, issue width, and the three loose
 * loops (branch, load, operand) with their recovery mechanisms.
 */

#include <gtest/gtest.h>

#include "core_test_util.hh"

using namespace loopsim;
using namespace loopsim::opbuild;
using namespace loopsim::testutil;

namespace
{

/** N fully independent single-cycle ops on distinct registers. */
std::vector<MicroOp>
independentAlus(int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i % 48)));
    return ops;
}

/** A serial chain r0 <- r0 of length n. */
std::vector<MicroOp>
aluChain(int n)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(0));
    for (int i = 1; i < n; ++i)
        ops.push_back(alu(0, 0));
    return ops;
}

/**
 * Warm the page and line at @p addr with a store, then delay register
 * @p base behind a short chain so a later load through @p base cannot
 * overtake the store (the model has no store-to-load ordering).
 */
std::vector<MicroOp>
warmThenDelay(ArchReg base, Addr addr, int delay = 12)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(base));
    ops.push_back(storeOp(base, base, addr));
    ops.push_back(alu(base, base));
    for (int i = 1; i < delay; ++i)
        ops.push_back(alu(base, base));
    return ops;
}

} // anonymous namespace

TEST(CorePipeline, SingleOpTraversesThePipe)
{
    auto h = makeHarness({alu(0)});
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 1u);
    // fetch(0) + front(4) + rename(2) + rest of DEC-IQ(3) + issue(+1)
    // + IQ-EX(5) + execute + confirm(issue+9): about 20 cycles.
    EXPECT_GE(h.core->cyclesRun(), 18u);
    EXPECT_LE(h.core->cyclesRun(), 24u);
}

TEST(CorePipeline, RetiresEverythingInOrder)
{
    auto h = makeHarness(independentAlus(500));
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 500u);
    EXPECT_EQ(h.stat("retired"), 500.0);
    EXPECT_EQ(h.stat("squashed"), 0.0);
}

TEST(CorePipeline, IssueWidthBoundsThroughput)
{
    // 800 independent ops on an 8-cluster machine: at most 8 per
    // cycle, so at least 100 issue cycles; with full pipelining the
    // total should be little more than that.
    auto h = makeHarness(independentAlus(800));
    h.run();
    EXPECT_GE(h.core->cyclesRun(), 100u + 15u);
    EXPECT_LE(h.core->cyclesRun(), 160u);
    EXPECT_GT(h.core->ipc(), 5.0);
}

TEST(CorePipeline, DependentChainRunsBackToBack)
{
    // A 100-op single-cycle chain issues 1 per cycle thanks to the
    // forwarding loop: ~100 cycles plus pipeline fill.
    auto h = makeHarness(aluChain(100));
    h.run();
    EXPECT_GE(h.core->cyclesRun(), 100u);
    EXPECT_LE(h.core->cyclesRun(), 140u);
}

TEST(CorePipeline, LongLatencyOpsStallDependents)
{
    // Chain of 20 FP ops (latency 4): ~80 cycles minimum.
    std::vector<MicroOp> ops;
    ops.push_back(fp(0, 1));
    for (int i = 1; i < 20; ++i)
        ops.push_back(fp(0, 0));
    auto h = makeHarness(ops);
    h.run();
    EXPECT_GE(h.core->cyclesRun(), 20u * 4u);
    EXPECT_LE(h.core->cyclesRun(), 20u * 4u + 40u);
}

TEST(CorePipeline, NopsAndStoresRetire)
{
    std::vector<MicroOp> ops;
    ops.push_back(nop());
    ops.push_back(alu(1));
    ops.push_back(storeOp(1, 1, 0x2000000));
    ops.push_back(nop());
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 4u);
}

TEST(CorePipeline, PipelineLengthStretchesTheChainLeadIn)
{
    // The same kernel on a longer DEC-IQ/IQ-EX pipe finishes later by
    // (roughly) the added stage count.
    Config longer;
    longer.setUint("core.dec_iq", 9);
    longer.setUint("core.iq_ex", 9);
    longer.setUint("core.regfile_latency", 7);

    auto short_h = makeHarness(aluChain(10));
    short_h.run();
    auto long_h = makeHarness(aluChain(10), longer);
    long_h.run();
    EXPECT_GE(long_h.core->cyclesRun(), short_h.core->cyclesRun() + 6);
}

TEST(CorePipeline, LoadHitFeedsConsumerQuickly)
{
    // Store warms the TLB page and the line; the load (held behind an
    // address chain so it cannot overtake the store) hits L1 and its
    // consumer issues under hit speculation with no reissue.
    std::vector<MicroOp> ops = warmThenDelay(1, 0x5000000);
    ops.push_back(load(2, 1, 0x5000000));
    ops.push_back(alu(3, 2));
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 16u);
    EXPECT_EQ(h.stat("loadMissEvents"), 0.0);
    EXPECT_EQ(h.stat("reissued"), 0.0);
    // The warming store itself pays the cold dTLB trap; the load
    // must not.
    EXPECT_EQ(h.stat("tlbTraps"), 1.0);
}

TEST(CorePipeline, ColdLoadTrapsAndRecovers)
{
    // A cold access misses the dTLB: a memory trap squashes and
    // refetches the younger ops, and everything still retires — in
    // program order, so the replay queue got the renamed and the
    // fetch-buffer victims back in order.
    // Enough younger ops that the fetch buffer is full at the trap.
    std::vector<MicroOp> ops;
    ops.push_back(load(2, invalidArchReg, 0x5000000));
    for (int i = 0; i < 200; ++i)
        ops.push_back(alu(static_cast<ArchReg>(3 + i % 10)));
    auto h = makeHarness(ops);
    const std::vector<trace::Event> &events = h.core->recordEvents();
    h.run();
    EXPECT_EQ(h.core->retiredOps(), ops.size());
    EXPECT_EQ(h.stat("tlbTraps"), 1.0);
    EXPECT_GT(h.stat("squashed"), 0.0);
    const auto retired = trace::pipelineRows(events);
    ASSERT_EQ(retired.size(), ops.size());
    for (std::size_t i = 0; i < retired.size(); ++i)
        EXPECT_EQ(retired[i].seq, static_cast<SeqNum>(i)) << "slot " << i;
}

TEST(CorePipeline, LoadMissKillsAndReissuesTheDependencyTree)
{
    // Warm the page (one line) so the later load TLB-hits but
    // L1-misses (different line, same page).
    std::vector<MicroOp> ops = warmThenDelay(1, 0x5000000);
    ops.push_back(load(2, 1, 0x5000000 + 256));
    ops.push_back(alu(3, 2));     // direct consumer: issued speculatively
    ops.push_back(alu(4, 3));     // indirect consumer
    ops.push_back(alu(5));        // independent: must NOT be killed
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 18u);
    EXPECT_EQ(h.stat("tlbTraps"), 1.0); // only the warming store traps
    EXPECT_GE(h.stat("loadMissEvents"), 1.0);
    // Both consumers were killed and reissued.
    EXPECT_GE(h.stat("loadKilledOps"), 2.0);
    EXPECT_GE(h.stat("reissued"), 2.0);
}

TEST(CorePipeline, StallModeNeverSpeculatesOnLoads)
{
    Config cfg;
    cfg.set("core.load_recovery", "stall");
    std::vector<MicroOp> ops = warmThenDelay(1, 0x5000000);
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    ops.push_back(alu(3, 2));
    ops.push_back(alu(4, 3));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 17u);
    EXPECT_EQ(h.stat("loadKilledOps"), 0.0);
    EXPECT_EQ(h.stat("reissued"), 0.0);
}

TEST(CorePipeline, StallModeIsSlowerOnHits)
{
    // With hit speculation a load-use chain runs near back-to-back; in
    // stall mode each load adds the notification round trip.
    std::vector<MicroOp> ops = warmThenDelay(1, 0x5000000);
    for (int i = 0; i < 20; ++i) {
        ops.push_back(load(2, 1, 0x5000000 + 8 * (i % 8)));
        ops.push_back(alu(1, 2));
    }
    auto spec = makeHarness(ops);
    spec.run();
    Config cfg;
    cfg.set("core.load_recovery", "stall");
    auto stall = makeHarness(ops, cfg);
    stall.run();
    EXPECT_GT(stall.core->cyclesRun(), spec.core->cyclesRun() + 40);
}

TEST(CorePipeline, RefetchModeRecoversFromTheFront)
{
    Config cfg;
    cfg.set("core.load_recovery", "refetch");
    std::vector<MicroOp> ops = warmThenDelay(1, 0x5000000);
    std::size_t before = ops.size();
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    for (int i = 0; i < 10; ++i)
        ops.push_back(alu(static_cast<ArchReg>(3 + i)));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), before + 11);
    EXPECT_GT(h.stat("squashed"), 0.0); // front-of-pipe recovery
}

TEST(CorePipeline, MispredictedBranchSquashesWrongPath)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 5; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i)));
    ops.push_back(branch(0, true, /*mispredict=*/true));
    for (int i = 0; i < 5; ++i)
        ops.push_back(alu(static_cast<ArchReg>(10 + i)));
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 11u);
    EXPECT_EQ(h.stat("branchMispredicts"), 1.0);
    EXPECT_GT(h.stat("wrongPathFetched"), 0.0);
    EXPECT_GT(h.stat("squashed"), 0.0);
}

TEST(CorePipeline, MispredictWithoutWrongPathFetchStalls)
{
    Config cfg;
    cfg.setBool("core.wrong_path", false);
    std::vector<MicroOp> ops;
    ops.push_back(branch(invalidArchReg, true, true));
    for (int i = 0; i < 5; ++i)
        ops.push_back(alu(static_cast<ArchReg>(i)));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 6u);
    EXPECT_EQ(h.stat("wrongPathFetched"), 0.0);
    EXPECT_EQ(h.stat("branchMispredicts"), 1.0);
}

TEST(CorePipeline, MispredictPenaltyScalesWithPipelineLength)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 40; ++i) {
        ops.push_back(branch(invalidArchReg, true, true));
        ops.push_back(alu(static_cast<ArchReg>(i % 40)));
    }
    auto short_h = makeHarness(ops);
    short_h.run();

    Config longer;
    longer.setUint("core.dec_iq", 9);
    longer.setUint("core.iq_ex", 9);
    longer.setUint("core.regfile_latency", 7);
    auto long_h = makeHarness(ops, longer);
    long_h.run();
    // 40 mispredicts x 8 added stages.
    EXPECT_GE(long_h.core->cyclesRun(),
              short_h.core->cyclesRun() + 40 * 6);
}

TEST(CorePipeline, CorrectlyPredictedBranchesAreFree)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        ops.push_back(branch(invalidArchReg, i % 2 == 0, false));
        ops.push_back(alu(static_cast<ArchReg>(i % 40)));
    }
    auto h = makeHarness(ops);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 100u);
    EXPECT_EQ(h.stat("branchMispredicts"), 0.0);
    EXPECT_EQ(h.stat("wrongPathFetched"), 0.0);
    EXPECT_EQ(h.stat("branches"), 50.0);
}

TEST(CorePipeline, KillAllInShadowKillsMore)
{
    std::vector<MicroOp> ops = warmThenDelay(1, 0x5000000);
    ops.push_back(load(2, 1, 0x5000000 + 256)); // L1 miss
    ops.push_back(alu(3, 2)); // dependent
    // Load-independent ops that become ready together with the load,
    // so they issue inside its shadow.
    for (int i = 0; i < 12; ++i)
        ops.push_back(alu(static_cast<ArchReg>(10 + i), 1));
    auto tree = makeHarness(ops);
    tree.run();

    Config cfg;
    cfg.setBool("core.kill_all_in_shadow", true);
    auto shadow = makeHarness(ops, cfg);
    shadow.run();
    EXPECT_GT(shadow.stat("loadKilledOps"), tree.stat("loadKilledOps"));
    EXPECT_EQ(shadow.core->retiredOps(), tree.core->retiredOps());
}

TEST(CorePipeline, IqCapacityThrottlesTheWindow)
{
    // A long-latency producer with many dependents fills a small IQ;
    // execution still completes and the IQ never exceeds its size.
    Config cfg;
    cfg.setUint("core.iq.entries", 16);
    std::vector<MicroOp> ops;
    ops.push_back(fp(0, 1));
    for (int i = 0; i < 200; ++i)
        ops.push_back(alu(static_cast<ArchReg>(2 + i % 40), 0));
    auto h = makeHarness(ops, cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 201u);
    EXPECT_LE(h.stat("iqOccupancy"), 16.0);
}

TEST(CorePipeline, SmtThreadsBothComplete)
{
    auto h = makeSmtHarness(independentAlus(300), aluChain(100));
    h.run();
    EXPECT_EQ(h.core->retiredOps(0), 300u);
    EXPECT_EQ(h.core->retiredOps(1), 100u);
    EXPECT_EQ(h.core->numThreads(), 2u);
}

TEST(CorePipeline, SmtFasterThanSum)
{
    // Two chains overlap: the pair must finish well before the sum of
    // their solo runtimes.
    auto solo0 = makeHarness(aluChain(200));
    solo0.run();
    auto solo1 = makeHarness(aluChain(200));
    solo1.run();
    auto both = makeSmtHarness(aluChain(200), aluChain(200));
    both.run();
    EXPECT_LT(both.core->cyclesRun(),
              solo0.core->cyclesRun() + solo1.core->cyclesRun() - 50);
}

TEST(CorePipeline, RoundRobinFetchPolicyWorks)
{
    Config cfg;
    cfg.set("core.fetch_policy", "rr");
    auto h = makeSmtHarness(independentAlus(100), independentAlus(100),
                            cfg);
    h.run();
    EXPECT_EQ(h.core->retiredOps(), 200u);
}

TEST(CorePipeline, MispredictInOneThreadDoesNotKillTheOther)
{
    std::vector<MicroOp> bad;
    for (int i = 0; i < 30; ++i) {
        bad.push_back(branch(invalidArchReg, true, true));
        bad.push_back(alu(static_cast<ArchReg>(i % 40)));
    }
    auto h = makeSmtHarness(bad, independentAlus(200));
    h.run();
    EXPECT_EQ(h.core->retiredOps(0), 60u);
    EXPECT_EQ(h.core->retiredOps(1), 200u);
}
