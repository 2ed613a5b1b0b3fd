/**
 * @file
 * Tests for the core's bookkeeping structures: the instruction pool,
 * physical register file / scoreboard, rename map, reorder buffer,
 * instruction queue, and forwarding buffer.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "core/dyn_inst.hh"
#include "core/forwarding_buffer.hh"
#include "core/instruction_queue.hh"
#include "core/register_file.hh"
#include "core/rename.hh"
#include "core/rob.hh"

using namespace loopsim;

TEST(InstPool, AllocReleaseCycle)
{
    InstPool pool(4);
    EXPECT_EQ(pool.capacity(), 4u);
    EXPECT_EQ(pool.inUse(), 0u);
    InstRef a = pool.alloc();
    InstRef b = pool.alloc();
    EXPECT_EQ(pool.inUse(), 2u);
    EXPECT_TRUE(pool.live(a));
    pool.release(a);
    EXPECT_FALSE(pool.live(a));
    EXPECT_TRUE(pool.live(b));
    EXPECT_EQ(pool.inUse(), 1u);
}

TEST(InstPool, StaleRefDetectedAfterRecycle)
{
    InstPool pool(1);
    InstRef a = pool.alloc();
    pool.release(a);
    InstRef b = pool.alloc(); // recycles the same slot
    EXPECT_EQ(a.idx, b.idx);
    EXPECT_NE(a.gen, b.gen);
    EXPECT_FALSE(pool.live(a));
    EXPECT_TRUE(pool.live(b));
    EXPECT_THROW(pool.get(a), PanicError);
}

TEST(InstPool, ExhaustionAndDoubleReleasePanic)
{
    InstPool pool(2);
    pool.alloc();
    InstRef b = pool.alloc();
    EXPECT_TRUE(pool.full());
    EXPECT_THROW(pool.alloc(), PanicError);
    pool.release(b);
    EXPECT_THROW(pool.release(b), PanicError);
}

TEST(InstPool, AllocResetsEntryState)
{
    InstPool pool(1);
    InstRef a = pool.alloc();
    DynInst &inst = pool.get(a);
    inst.timesIssued = 5;
    inst.consumers.push_back(a);
    pool.release(a);
    InstRef b = pool.alloc();
    EXPECT_EQ(pool.get(b).timesIssued, 0u);
    EXPECT_TRUE(pool.get(b).consumers.empty());
    EXPECT_EQ(pool.get(b).state, InstState::Renamed);
}

TEST(PhysRegFile, AllocFreeRoundTrip)
{
    PhysRegFile prf(8);
    EXPECT_EQ(prf.numFree(), 8u);
    PhysReg r = prf.alloc(InstRef{});
    EXPECT_EQ(prf.numFree(), 7u);
    EXPECT_TRUE(prf.live(r));
    EXPECT_FALSE(prf.issueReady(r, 100)); // starts not ready
    prf.free(r);
    EXPECT_FALSE(prf.live(r));
    EXPECT_EQ(prf.numFree(), 8u);
}

TEST(PhysRegFile, ArchRegsStartReady)
{
    PhysRegFile prf(8);
    PhysReg r = prf.allocArch();
    EXPECT_TRUE(prf.issueReady(r, 0));
    EXPECT_TRUE(prf.actualReady(r, 0));
    EXPECT_TRUE(prf.writtenBack(r, 0));
}

TEST(PhysRegFile, ScoreboardTransitions)
{
    PhysRegFile prf(8);
    PhysReg r = prf.alloc(InstRef{});
    prf.setIssueReady(r, 10);
    EXPECT_FALSE(prf.issueReady(r, 9));
    EXPECT_TRUE(prf.issueReady(r, 10));
    prf.setActualReady(r, 15);
    EXPECT_FALSE(prf.actualReady(r, 14));
    EXPECT_TRUE(prf.actualReady(r, 15));
    EXPECT_EQ(prf.actualReadyAt(r), 15u);
    prf.clearIssueReady(r);
    prf.clearActualReady(r);
    EXPECT_FALSE(prf.issueReady(r, 1000000));
    EXPECT_FALSE(prf.actualReady(r, 1000000));
    prf.setWriteback(r, 24);
    EXPECT_FALSE(prf.writtenBack(r, 23));
    EXPECT_TRUE(prf.writtenBack(r, 24));
}

TEST(PhysRegFile, ReallocResetsState)
{
    PhysRegFile prf(1);
    PhysReg r = prf.alloc(InstRef{});
    prf.setIssueReady(r, 5);
    prf.setActualReady(r, 5);
    prf.setWriteback(r, 14);
    prf.free(r);
    PhysReg r2 = prf.alloc(InstRef{});
    EXPECT_EQ(r, r2);
    EXPECT_FALSE(prf.issueReady(r2, 1000));
    EXPECT_FALSE(prf.writtenBack(r2, 1000));
}

TEST(PhysRegFile, ErrorsPanic)
{
    PhysRegFile prf(2);
    PhysReg r = prf.alloc(InstRef{});
    prf.free(r);
    EXPECT_THROW(prf.free(r), PanicError); // double free
    EXPECT_THROW(prf.issueReady(99, 0), PanicError);
    prf.alloc(InstRef{});
    prf.alloc(InstRef{});
    EXPECT_THROW(prf.alloc(InstRef{}), PanicError); // exhausted
}

TEST(PhysRegFile, ProducerTracking)
{
    InstPool pool(2);
    PhysRegFile prf(4);
    InstRef producer = pool.alloc();
    PhysReg r = prf.alloc(producer);
    EXPECT_TRUE(prf.producer(r) == producer);
}

TEST(RenameMap, LookupRenameRestore)
{
    PhysRegFile prf(16);
    RenameMap map(4, prf);
    EXPECT_EQ(prf.numFree(), 12u); // 4 arch regs allocated

    PhysReg old = map.lookup(2);
    PhysReg fresh = prf.alloc(InstRef{});
    PhysReg prev = map.rename(2, fresh);
    EXPECT_EQ(prev, old);
    EXPECT_EQ(map.lookup(2), fresh);

    map.restore(2, prev);
    EXPECT_EQ(map.lookup(2), old);
    EXPECT_THROW(map.lookup(4), PanicError);
}

TEST(Rob, OrderAndWalks)
{
    InstPool pool(8);
    ReorderBuffer rob(pool.capacity());
    InstRef a = pool.alloc();
    InstRef b = pool.alloc();
    InstRef c = pool.alloc();
    rob.push(a);
    rob.push(b);
    rob.push(c);
    EXPECT_EQ(rob.size(), 3u);
    EXPECT_TRUE(rob.head() == a);
    EXPECT_TRUE(rob.tail() == c);
    EXPECT_TRUE(rob.at(1) == b);
    rob.popTail();
    EXPECT_TRUE(rob.tail() == b);
    rob.popHead();
    EXPECT_TRUE(rob.head() == b);
    rob.popHead();
    EXPECT_TRUE(rob.empty());
    EXPECT_THROW(rob.head(), PanicError);
    EXPECT_THROW(rob.popTail(), PanicError);

    // Sized to the window: one entry per pool slot, and no more.
    for (std::size_t i = 0; i < pool.capacity(); ++i)
        rob.push(a);
    EXPECT_THROW(rob.push(a), PanicError);
}

TEST(Iq, InsertRemoveTracksSlots)
{
    InstPool pool(8);
    InstructionQueue iq(4);
    InstRef a = pool.alloc();
    InstRef b = pool.alloc();
    InstRef c = pool.alloc();
    iq.insert(pool, a);
    iq.insert(pool, b);
    iq.insert(pool, c);
    EXPECT_EQ(iq.size(), 3u);
    EXPECT_TRUE(iq.contains(pool, b));

    // Removing from the middle swap-fills; back-pointers stay valid.
    iq.remove(pool, a);
    EXPECT_FALSE(iq.contains(pool, a));
    EXPECT_TRUE(iq.contains(pool, b));
    EXPECT_TRUE(iq.contains(pool, c));
    iq.remove(pool, c);
    iq.remove(pool, b);
    EXPECT_EQ(iq.size(), 0u);
}

TEST(Iq, CapacityEnforced)
{
    InstPool pool(8);
    InstructionQueue iq(2);
    iq.insert(pool, pool.alloc());
    iq.insert(pool, pool.alloc());
    EXPECT_TRUE(iq.full());
    EXPECT_EQ(iq.freeSlots(), 0u);
    InstRef extra = pool.alloc();
    EXPECT_THROW(iq.insert(pool, extra), PanicError);
}

TEST(Iq, DoubleInsertAndGhostRemovePanic)
{
    InstPool pool(4);
    InstructionQueue iq(4);
    InstRef a = pool.alloc();
    iq.insert(pool, a);
    EXPECT_THROW(iq.insert(pool, a), PanicError);
    InstRef b = pool.alloc();
    EXPECT_THROW(iq.remove(pool, b), PanicError);
}

TEST(ForwardingBuffer, WindowEdges)
{
    ForwardingBuffer fwd(9);
    // Forwardable in the production cycle through depth-1 later.
    EXPECT_TRUE(fwd.covers(100, 100));
    EXPECT_TRUE(fwd.covers(100, 108));
    EXPECT_FALSE(fwd.covers(100, 109)); // written back now
    EXPECT_FALSE(fwd.covers(100, 99));  // not produced yet
    EXPECT_FALSE(fwd.covers(invalidCycle, 50));
    EXPECT_EQ(fwd.writebackCycle(100), 109u);
}

TEST(ForwardingBuffer, NoGapBetweenForwardAndWriteback)
{
    // The architectural identity of §2.2.1: the cycle a value leaves
    // the buffer is exactly the cycle it becomes readable from the RF.
    for (unsigned depth : {1u, 5u, 9u, 17u}) {
        ForwardingBuffer fwd(depth);
        Cycle produce = 1000;
        for (Cycle t = produce; t < produce + 2 * depth; ++t) {
            bool in_buffer = fwd.covers(produce, t);
            bool in_rf = t >= fwd.writebackCycle(produce);
            EXPECT_TRUE(in_buffer || in_rf) << "gap at " << t;
            EXPECT_FALSE(in_buffer && in_rf) << "overlap at " << t;
        }
    }
}

TEST(ForwardingBuffer, ZeroDepthFatal)
{
    EXPECT_THROW(ForwardingBuffer(0), FatalError);
}

TEST(OperandSourceNames, AllDefined)
{
    EXPECT_STREQ(operandSourceName(OperandSource::PreRead), "preread");
    EXPECT_STREQ(operandSourceName(OperandSource::Forward), "forward");
    EXPECT_STREQ(operandSourceName(OperandSource::Crc), "crc");
    EXPECT_STREQ(operandSourceName(OperandSource::RegFile), "regfile");
    EXPECT_STREQ(operandSourceName(OperandSource::Payload), "payload");
    EXPECT_STREQ(operandSourceName(OperandSource::Miss), "miss");
}
