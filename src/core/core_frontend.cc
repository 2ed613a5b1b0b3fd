/**
 * @file
 * Core front end: fetch (SMT arbitration, profile-tagged branches,
 * wrong path, replay), rename/slotting, and the DEC-IQ pipe into the IQ.
 */

#include <algorithm>

#include "base/logging.hh"
#include "core/core.hh"
#include "integrity/fault_injector.hh"

namespace loopsim
{

ThreadId
Core::pickFetchThread()
{
    constexpr ThreadId none = 0xff;
    ThreadId best = none;
    std::size_t best_count = 0;

    for (std::size_t i = 0; i < threads.size(); ++i) {
        // Round-robin start offset keeps ties fair.
        ThreadId tid = static_cast<ThreadId>(
            (i + rrFetchCursor) % threads.size());
        ThreadState &t = threads[tid];
        if (t.fetchBuffer.full())
            continue;
        bool has_work = !t.replayQueue.empty() || !t.exhausted ||
                        (t.onWrongPath && cfg.wrongPathFetch);
        if (!has_work)
            continue;
        if (t.onWrongPath && !cfg.wrongPathFetch)
            continue; // stalled until the branch resolves

        // ICOUNT: prefer the thread with the least work in flight,
        // counting the whole window so a stalled thread cannot hog it.
        std::size_t count = t.fetchBuffer.size() + t.pipeCount +
                            t.iqCount + t.rob.size();
        if (cfg.fetchPolicy == FetchPolicy::RoundRobin) {
            best = tid;
            break;
        }
        if (best == none || count < best_count) {
            best = tid;
            best_count = count;
        }
    }
    ++rrFetchCursor;
    return best;
}

bool
Core::fetchOne(ThreadState &t, ThreadId tid, Cycle now)
{
    if (t.fetchBuffer.full())
        return false;

    MicroOp op;
    if (t.onWrongPath) {
        if (!cfg.wrongPathFetch)
            return false;
        t.src->nextWrongPath(op, t.wrongPathResume);
        op.tid = tid;
        *wrongPathOps += 1;
    } else if (!t.replayQueue.empty()) {
        op = t.replayQueue.pop();
        *fetchedOps += 1;
    } else if (!t.exhausted && t.src->next(op)) {
        *fetchedOps += 1;
    } else {
        t.exhausted = true;
        return false;
    }

    bool end_group = false;
    if (!op.wrongPath && op.isBranch()) {
        // The workload's calibrated forceMispredict tag is the
        // prediction. Fault injection: a corrupted predictor flips it,
        // exercising the branch-loop squash (or, when flipping a
        // mispredict off, suppressing a recovery the profile expected).
        if (injector && injector->corruptBranch())
            op.forceMispredict = !op.forceMispredict;
        if (op.forceMispredict) {
            t.onWrongPath = true;
            t.wrongPathResume = op.seq + 1;
        }
        // The fetch group ends at a predicted-taken branch.
        bool predicted_taken =
            op.isCondBranch() ? (op.taken != op.forceMispredict) : true;
        end_group = predicted_taken || op.forceMispredict;
    }

    if (recorder)
        recorder->record(trace::EventKind::Fetch, now, op,
                         t.onWrongPath && !op.wrongPath);
    t.fetchBuffer.push(FetchedOp{op, now + cfg.frontLatency + 2});
    ++t.fetched;
    return !end_group;
}

void
Core::fetchStage(Cycle now)
{
    ThreadId tid = pickFetchThread();
    if (tid == 0xff)
        return;
    ThreadState &t = threads[tid];
    for (unsigned i = 0; i < cfg.width; ++i) {
        if (!fetchOne(t, tid, now))
            break;
    }
}

bool
Core::renameOne(ThreadState &t, ThreadId tid, FetchedOp &fop, Cycle now)
{
    const MicroOp &op = fop.op;

    // Memory barrier: the mapping logic stalls the barrier and all
    // succeeding instructions until every preceding instruction has
    // completed (paper §1's infrequent, stall-managed loose loop).
    if (op.isBarrier() && !t.rob.empty())
        return false;

    if (pool.full())
        return false;
    if (op.hasDest() && !prf.hasFree())
        return false;
    // SMT fairness: the in-flight window and IQ are partitioned
    // evenly, so one stalled thread cannot monopolise them and
    // head-of-line-block the other thread's dispatch for the duration
    // of its misses.
    if (threads.size() > 1) {
        if (t.rob.size() >=
            cfg.robEntries / static_cast<unsigned>(threads.size())) {
            return false;
        }
        if (t.iqCount + t.pipeCount >=
            cfg.iqEntries / static_cast<unsigned>(threads.size())) {
            return false;
        }
    }

    InstRef ref = pool.alloc();
    DynInst &inst = pool.get(ref);
    inst.op = op;
    inst.op.tid = tid;
    inst.fetchStamp = ++fetchStampCounter;
    inst.fetchCycle = fop.renameReadyAt - cfg.frontLatency - 2;
    inst.renameCycle = now;
    inst.cluster =
        static_cast<ClusterId>(clusterCursor++ % cfg.numClusters);

    // Sources are looked up before the destination is renamed, so an
    // op reading and writing the same architectural register sees the
    // old value.
    for (unsigned i = 0; i < 2; ++i) {
        if (op.src[i] == invalidArchReg)
            continue;
        PhysReg reg = t.map->lookup(op.src[i]);
        inst.physSrc[i] = reg;
        InstRef prod = prf.producer(reg);
        if (pool.live(prod)) {
            inst.srcProducer[i] = prod;
            pool.get(prod).consumers.push_back(ref);
        }
        if (draUnit && draUnit->renameSource(reg, inst.cluster)) {
            // Completed operand: pre-read from the RF into the payload
            // during the remaining DEC-IQ cycles.
            inst.operandInPayload[i] = true;
        }
    }

    if (op.hasDest()) {
        PhysReg dest = prf.alloc(ref);
        inst.physDest = dest;
        inst.prevPhysDest = t.map->rename(op.dest, dest);
        if (draUnit)
            draUnit->renameDest(dest);
    }

    // Memory-ordering bookkeeping: stores get a per-thread sequence
    // number; loads remember how many stores precede them.
    if (op.isStore()) {
        inst.storeSeq = ++t.storeRenameCount;
        t.unexecStoreSeqs.insert(inst.storeSeq);
    } else if (op.isLoad()) {
        inst.olderStores = t.storeRenameCount;
    }

    if (recorder)
        recorder->record(trace::EventKind::Rename, now, inst.op, 0,
                         inst.cluster, inst.physDest);
    t.rob.push(ref);
    renamePipe.push(PendingInsert{ref, now + (cfg.decIqLatency - 2), tid});
    ++t.pipeCount;
    *renamedOps += 1;
    return true;
}

void
Core::renameStage(Cycle now)
{
    // An operand-miss recovery borrows the RF read ports, stalling the
    // front end (§5.4).
    if (now < renameStallUntil) {
        *recoveryStallCycles += 1;
        return;
    }

    unsigned renamed = 0;
    // Round-robin across threads at rename for SMT fairness.
    std::size_t n_threads = threads.size();
    std::size_t start = static_cast<std::size_t>(now) % n_threads;
    bool progress = true;
    while (renamed < cfg.width && progress) {
        progress = false;
        for (std::size_t i = 0; i < n_threads && renamed < cfg.width;
             ++i) {
            ThreadId tid =
                static_cast<ThreadId>((start + i) % n_threads);
            ThreadState &t = threads[tid];
            if (t.fetchBuffer.empty())
                continue;
            FetchedOp &fop = t.fetchBuffer.front();
            if (fop.renameReadyAt > now)
                continue;
            // Skid-buffered DEC-IQ pipe: rename stalls when the pipe
            // backs up (IQ-full back-pressure), modelling the queuing
            // delay the paper notes augments loop latencies.
            if (renamePipe.full())
                return;
            if (!renameOne(t, tid, fop, now))
                continue; // this thread stalls; others may proceed
            t.fetchBuffer.pop();
            ++renamed;
            progress = true;
        }
    }
}

void
Core::insertStage(Cycle now)
{
    unsigned inserted = 0;
    while (!renamePipe.empty() && inserted < cfg.width) {
        PendingInsert &head = renamePipe.front();
        if (head.insertAt > now)
            break;
        if (iq.full())
            break; // §2.2.2: capacity pressure stalls insertion
        DynInst &inst = pool.get(head.ref);
        panic_if(inst.state != InstState::Renamed,
                 "non-renamed instruction in the DEC-IQ pipe");
        iq.insert(pool, head.ref);
        inst.state = InstState::InIq;
        inst.insertCycle = now;
        // Fresh entries can issue from the cycle after insertion —
        // but only once their scoreboard gates pass, so note the
        // exact cycle instead of a blanket revisit. An unknown gate
        // (producer not yet scheduled) is covered by the wakeReg()
        // hook at the producer's issue, exactly as in the scan.
        const Cycle r0 = wakeupGateCycle(prf, inst, 0);
        const Cycle r1 = wakeupGateCycle(prf, inst, 1);
        if (r0 != invalidCycle && r1 != invalidCycle) {
            noteIqWake(std::max({r0, r1, now + 1}));
            if (sparseKernel) {
                armWakeTimer(std::max({r0, r1, now + 1}),
                             head.ref);
            }
        }
        ThreadState &t = threads[head.tid];
        panic_if(t.pipeCount == 0, "pipe count underflow");
        --t.pipeCount;
        ++t.iqCount;
        renamePipe.pop();
        ++inserted;
    }
}

} // namespace loopsim
