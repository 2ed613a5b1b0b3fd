#include "core/core.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "base/options.hh"
#include "integrity/fault_injector.hh"
#include "sim/config.hh"

namespace loopsim
{

Core::Core(const Config &config, std::vector<TraceSource *> sources)
    : cfg(MachineConfig::fromConfig(config)),
      mem(std::make_unique<MemoryHierarchy>()),
      pool(cfg.robEntries), prf(cfg.numPhysRegs), iq(cfg.iqEntries),
      fwd(cfg.fwdBufferDepth), renamePipe(cfg.renamePipeCapacity()),
      events(std::size_t{cfg.numClusters} * cfg.iqExLatency)
{
    fatal_if(sources.empty(), "core needs at least one trace source");
    fatal_if(sources.size() > 2, "core supports at most 2 SMT threads");

    if (cfg.dra) {
        draUnit = std::make_unique<DraUnit>(
            cfg.numPhysRegs, cfg.numClusters, cfg.crcEntries,
            parseCrcRepl(cfg.crcRepl), cfg.insertionTableBits,
            cfg.crcTimeout);
    }
    if (cfg.memOrderTraps) {
        memDep = std::make_unique<MemDepPredictor>(cfg.memDepEntries,
                                                   cfg.memDepClear);
    }
    FaultPlan fault_plan = FaultPlan::fromConfig(config);
    if (fault_plan.enable)
        injector = std::make_unique<FaultInjector>(fault_plan);

    // Sized here, not only in prepareKernel(): a bare core outside
    // any Simulator defaults to the sparse code paths.
    clusterReady.resize(cfg.numClusters);

    // The event stream exists only when a view is on (LOOPSIM_DEBUG, or
    // trace collection), and before the rename maps' boot allocations.
    const unsigned print = processOptions().debugFlags;
    const unsigned keep = trace::collectionActive()
                              ? trace::kindBit(trace::EventKind::Loop)
                              : 0;
    if (print | keep)
        recorder = std::make_unique<trace::RunRecorder>(print, keep);
    pool.recorder = prf.recorder = recorder.get();

    // One thread can hold the whole window. Its replay queue holds only
    // correct-path ops not yet retired, and those grow only by fetching
    // from the trace, which happens only while the replay queue is
    // empty, when they all sit in the ROB or the fetch buffer: so
    // window + fetch buffer bounds it (DESIGN.md §14).
    threads.reserve(sources.size());
    for (std::size_t t = 0; t < sources.size(); ++t) {
        panic_if(!sources[t], "null trace source");
        threads.emplace_back(cfg.robEntries, cfg.fetchBufferCapacity(),
                             cfg.robEntries + cfg.fetchBufferCapacity());
        threads[t].src = sources[t];
        threads[t].map = std::make_unique<RenameMap>(
            RegLayout::numArchRegs, prf);
        if (draUnit) {
            // Boot-time architectural values live in the RF, so their
            // RPFT bits start set (completed operands).
            for (ArchReg r = 0; r < RegLayout::numArchRegs; ++r)
                draUnit->writeback(threads[t].map->lookup(r));
        }
    }

    // The scalars the harness copies into every RunResult, keyed by
    // their unqualified names.
    exported = {
        {"cycles", &measured.cycles},
        {"fetched", &measured.fetchedOps},
        {"wrongPathFetched", &measured.wrongPathOps},
        {"renamed", &measured.renamedOps},
        {"issued", &measured.issuedOps},
        {"reissued", &measured.reissuedOps},
        {"retired", &measured.retiredTotal},
        {"squashed", &measured.squashedOps},
        {"branches", &measured.branchesRetired},
        {"branchMispredicts", &measured.branchMispredicts},
        {"loadMissEvents", &measured.loadMissEvents},
        {"loadKilledOps", &measured.loadKilledOps},
        {"tlbTraps", &measured.tlbTraps},
        {"memOrderTraps", &measured.memOrderTrapCount},
        {"operandMissEvents", &measured.operandMissEvents},
        {"recoveryStallCycles", &measured.recoveryStallCycles},
        {"iqOccupancy", &measured.iqOccupancy},
        {"robOccupancy", &measured.robOccupancy},
        {"branchLoopOpenCycles", &measured.branchLoopOpenCycles},
        {"loadLoopOpenCycles", &measured.loadLoopOpenCycles},
        {"operandLoopOpenCycles", &measured.operandLoopOpenCycles},
    };
}

Core::~Core() = default;

const std::vector<trace::Event> &
Core::recordEvents()
{
    if (!recorder) {
        recorder = std::make_unique<trace::RunRecorder>(0, 0);
        pool.recorder = prf.recorder = recorder.get();
    }
    recorder->keep(~0u);
    return recorder->events();
}

std::vector<trace::LoopEvent>
Core::takeLoopTrace()
{
    return recorder ? recorder->takeLoopEvents()
                    : std::vector<trace::LoopEvent>{};
}

void
Core::schedule(Event ev, bool lazy)
{
    // Writebacks are pure timestamp updates: nothing observes them
    // until some later read, and reads only happen inside ticks. They
    // are always lazy, so they do not wake the event wheel (see the
    // member doc) and a cycle whose only activity is a writeback costs
    // no tick. ExecStarts may go the same way when the caller can
    // prove the drain-late equivalence (ALU ExecStarts).
    events.push(ev, lazy);
}

template <class Msg>
void
Core::recordLoop(trace::LoopEventType type, const DelayedSignal<Msg> &sig,
                 InstRef ref, Cycle now)
{
    if (!recorder)
        return;
    const bool live = pool.live(ref);
    ThreadId tid = live ? pool.get(ref).op.tid : ThreadId{0};
    if constexpr (requires { sig.value.tid; })
        tid = sig.value.tid;
    recorder->record({.kind = trace::EventKind::Loop,
                      .what = static_cast<std::uint8_t>(type),
                      .tid = tid,
                      .cycle = now,
                      .id = live ? pool.get(ref).fetchStamp : 0,
                      .a = sig.writeCycle,
                      .b = sig.loopDelay});
}

void
Core::processEvents(Cycle now)
{
    // Drain everything due in (cycle, type, order) order — exactly the
    // order a single dense heap would pop. Only waking events feed
    // nextActivity(); lazy ones are *expected* to drain late, with
    // their own cycle as the time (the queue panics on an overdue
    // waking event).
    Event ev;
    while (events.pop(now, ev)) {
        // Audit context: evaluated only when a read violates the loop
        // discipline.
        auto violation_context = [&] { return instTimeline(ev.ref); };

        // Kills, traps, redirects and payload deliveries can revert
        // entries to InIq, clear pending-event counts, release held
        // loads (squash-side store-seq erasure) or end a recovery
        // wait — any of which can let the issue stage act this very
        // cycle. Writebacks cannot (issue gating reads issue-ready
        // times only), and ExecStart hooks precisely inside
        // startExecution() via wakeReg()/noteIqWake().
        if (ev.type != EventType::Writeback &&
            ev.type != EventType::ExecStart) {
            noteIqWake(now);
        }

        switch (ev.type) {
          case EventType::Writeback: {
            // The value leaves the forwarding buffer and lands in the
            // RF — unless a kill/squash/reallocation superseded it.
            // ev.cycle, not now: a lazily-drained writeback must land
            // with the timestamp the dense kernel would have used.
            if (prf.live(ev.reg) &&
                prf.actualReadyAt(ev.reg) == ev.expect) {
                prf.setWriteback(ev.reg, ev.cycle);
                if (draUnit)
                    draUnit->writeback(ev.reg, ev.cycle);
            }
            break;
          }
          case EventType::ExecStart:
            // ev.cycle, not now: a lazily-drained ALU ExecStart must
            // execute with the start cycle the dense kernel would
            // have used (waking ExecStarts drain with now == cycle).
            startExecution(ev.ref, ev.cycle, ev.issueStamp);
            break;
          case EventType::LoadMissKill: {
            // The load loop's resolution reaches the IQ: unwrap it
            // through the port (audit builds verify the loop delay)
            // before any staleness early-out, so every signal sent is
            // read exactly once. readStamped keeps the write stamp so
            // the trace row carries the full loop geometry.
            const DelayedSignal<LoadResolveMsg> sig =
                loadPort.readStamped(ev.signalId, now,
                                     violation_context);
            recordLoop(trace::LoopEventType::LoadKill, sig, ev.ref, now);
            if (!pool.live(ev.ref))
                break;
            DynInst &inst = pool.get(ev.ref);
            panic_if(inst.pendingEvents == 0, "pending-event underflow");
            --inst.pendingEvents;
            if (inst.issueCycle != ev.issueStamp)
                break;
            if (cfg.killAllInShadow && inst.op.isLoad())
                killLoadShadow(inst, now);
            else
                killDependencyTree(ev.ref, now);
            break;
          }
          case EventType::OperandMissKill: {
            // The DRA operand loop's fault notification reaches the
            // IQ; stays valid across the faulter's revert (§5.4).
            const DelayedSignal<OperandMissMsg> sig =
                operandPort.readStamped(ev.signalId, now,
                                        violation_context);
            recordLoop(trace::LoopEventType::OperandKill, sig, ev.ref, now);
            if (!pool.live(ev.ref))
                break;
            DynInst &inst = pool.get(ev.ref);
            panic_if(inst.pendingEvents == 0, "pending-event underflow");
            --inst.pendingEvents;
            if (cfg.killAllInShadow && inst.op.isLoad())
                killLoadShadow(inst, now);
            else
                killDependencyTree(ev.ref, now);
            break;
          }
          case EventType::TlbTrap: {
            const DelayedSignal<LoadResolveMsg> sig =
                loadPort.readStamped(ev.signalId, now,
                                     violation_context);
            const LoadResolveMsg &msg = sig.value;
            recordLoop(trace::LoopEventType::TlbTrap, sig, ev.ref, now);
            if (!pool.live(ev.ref))
                break;
            DynInst &inst = pool.get(ev.ref);
            panic_if(inst.pendingEvents == 0, "pending-event underflow");
            --inst.pendingEvents;
            if (inst.issueCycle != ev.issueStamp)
                break;
            // Memory trap: recover from the front of the pipeline.
            killDependencyTree(ev.ref, now);
            squashYounger(msg.tid, msg.squashStamp, now);
            break;
          }
          case EventType::OrderTrap: {
            // Load/store reorder trap: the load (and everything after
            // it) restarts from fetch; the wait table was already
            // trained at detection.
            const DelayedSignal<LoadResolveMsg> sig =
                loadPort.readStamped(ev.signalId, now,
                                     violation_context);
            const LoadResolveMsg &msg = sig.value;
            recordLoop(trace::LoopEventType::OrderTrap, sig, ev.ref, now);
            if (!pool.live(ev.ref))
                break;
            DynInst &inst = pool.get(ev.ref);
            panic_if(inst.pendingEvents == 0, "pending-event underflow");
            --inst.pendingEvents;
            squashYounger(msg.tid, msg.squashStamp, now);
            break;
          }
          case EventType::BranchRedirect: {
            const DelayedSignal<BranchResolveMsg> sig =
                branchPort.readStamped(ev.signalId, now,
                                       violation_context);
            const BranchResolveMsg &msg = sig.value;
            recordLoop(trace::LoopEventType::BranchResolution, sig, ev.ref,
                       now);
            if (!pool.live(ev.ref))
                break;
            DynInst &inst = pool.get(ev.ref);
            panic_if(inst.pendingEvents == 0, "pending-event underflow");
            --inst.pendingEvents;
            if (inst.issueCycle != ev.issueStamp)
                break;
            inst.redirectDone = true;
            squashYounger(msg.tid, msg.squashStamp, now);
            break;
          }
          case EventType::PayloadDelivery: {
            // The recovered operands arrive at the IQ payload; the
            // miss mask travels through the port, properly typed.
            const DelayedSignal<OperandMissMsg> sig =
                operandPort.readStamped(ev.signalId, now,
                                        violation_context);
            const OperandMissMsg &msg = sig.value;
            recordLoop(trace::LoopEventType::OperandPayload, sig, ev.ref, now);
            if (!pool.live(ev.ref))
                break;
            DynInst &inst = pool.get(ev.ref);
            if (!inst.waitingRecovery)
                break;
            for (unsigned i = 0; i < 2; ++i) {
                if (msg.missMask & (1u << i)) {
                    inst.operandInPayload[i] = true;
                    inst.payloadFromRecovery[i] = true;
                }
            }
            inst.waitingRecovery = false;
            // The recovery wait kept this entry out of the ready
            // tracking (recheck and wake pops drop waitingRecovery
            // refs); now that the wait ended, re-enter it. Payload
            // operands are ungated, so with the other gate known the
            // entry can issue this very cycle — the issue pass runs
            // after this drain.
            if (sparseKernel && inst.state == InstState::InIq &&
                inst.insertCycle != invalidCycle) {
                const Cycle r0 = wakeupGateCycle(prf, inst, 0);
                const Cycle r1 = wakeupGateCycle(prf, inst, 1);
                if (r0 != invalidCycle && r1 != invalidCycle) {
                    armWakeTimer(std::max({r0, r1,
                                           inst.insertCycle + 1}),
                                 ev.ref);
                }
            }
            break;
          }
          default:
            panic("unknown event type");
        }

        // Feedback deliveries are the only mutations that can take a
        // Done entry's pending-event count to zero — the last gate on
        // its confirm-free. The reference scan picks the free up on
        // its (blanket-noted) next cycle; arm the confirm timer so the
        // incremental path frees it at the same cycle.
        if (sparseKernel && ev.type != EventType::Writeback &&
            ev.type != EventType::ExecStart && pool.live(ev.ref)) {
            const DynInst &inst = pool.get(ev.ref);
            if (inst.state == InstState::Done && inst.iqSlot != 0xffff &&
                inst.pendingEvents == 0 &&
                inst.confirmCycle != invalidCycle) {
                armConfirmTimer(std::max(inst.confirmCycle, now),
                                ev.ref);
            }
        }
    }
}

void
Core::killInstruction(InstRef ref, Cycle now)
{
    DynInst &inst = pool.get(ref);
    panic_if(inst.state != InstState::Issued &&
                 inst.state != InstState::Done,
             "killing an instruction that is not issued");
    panic_if(inst.iqSlot == 0xffff,
             "killing an instruction whose IQ entry was already freed");
    if (recorder)
        recorder->record(trace::EventKind::Kill, now, inst.op);
    inst.state = InstState::InIq;
    inst.issueCycle = invalidCycle;
    inst.execStartCycle = invalidCycle;
    inst.produceCycle = invalidCycle;
    inst.confirmCycle = invalidCycle;
    inst.execValid = false;
    inst.memDone = false;
    // A branch killed before its redirect went out must resolve again
    // on reissue; one whose redirect already happened must not redirect
    // a second time.
    if (inst.op.isBranch() && !inst.redirectDone) {
        inst.branchResolved = false;
        inst.mispredicted = false;
    }
    // A killed store will re-execute: it is outstanding again for
    // memory-ordering purposes.
    if (inst.op.isStore() && inst.storeExecCounted) {
        inst.storeExecCounted = false;
        threads[inst.op.tid].unexecStoreSeqs.insert(inst.storeSeq);
    }
    if (inst.op.hasDest()) {
        prf.clearIssueReady(inst.physDest);
        prf.clearActualReady(inst.physDest);
    }
    measured.loadKilledOps += 1;
    // Back in InIq, the victim may reissue in this very cycle (its
    // own source gates are untouched by the kill); put it back in
    // front of the next issue pass.
    if (sparseKernel)
        queueReadyRecheck(ref);
}

void
Core::killDependencyTree(InstRef root, Cycle now)
{
    // §2.2.2: only instructions in the load (or faulting operand's)
    // dependency tree that have already issued are reissued. The IQ
    // learns of the mis-speculation all at once, `now`, so the whole
    // issued tree is reverted in this cycle.
    std::vector<InstRef> work;
    work.push_back(root);
    while (!work.empty()) {
        InstRef ref = work.back();
        work.pop_back();
        // Copy: killInstruction does not mutate consumer lists, but
        // keep iteration robust against future edits.
        const std::vector<InstRef> consumers = pool.get(ref).consumers;
        for (const InstRef &c : consumers) {
            if (!pool.live(c))
                continue;
            const DynInst &ci = pool.get(c);
            if (ci.state != InstState::Issued &&
                ci.state != InstState::Done) {
                continue; // not issued: it simply waits
            }
            killInstruction(c, now);
            work.push_back(c);
        }
    }
}

void
Core::killLoadShadow(const DynInst &load, Cycle now)
{
    // 21264-style recovery: every instruction of the thread issued in
    // the load shadow is killed, in the dependency tree or not.
    for (InstRef ref : iq.occupants()) {
        const DynInst &inst = pool.get(ref);
        if (inst.op.tid != load.op.tid)
            continue;
        if (inst.state != InstState::Issued &&
            inst.state != InstState::Done) {
            continue;
        }
        if (&inst == &load)
            continue;
        if (inst.issueCycle == invalidCycle ||
            inst.issueCycle <= load.issueCycle) {
            continue; // issued before the shadow opened
        }
        killInstruction(ref, now);
    }
}

void
Core::squashYounger(ThreadId tid, std::uint64_t stamp, Cycle now)
{
    if (recorder)
        recorder->record({.kind = trace::EventKind::Squash, .tid = tid,
                          .cycle = now, .a = stamp});
    ThreadState &t = threads[tid];

    // Correct-path victims must be refetched later: they go to the
    // front of the replay queue, ahead of whatever already awaits
    // replay, youngest first so the queue ends up in program order.
    // Fetch buffer: everything there is younger than any renamed op of
    // this thread.
    for (std::size_t i = t.fetchBuffer.size(); i-- > 0;) {
        if (!t.fetchBuffer[i].op.wrongPath)
            t.replayQueue.pushFront(t.fetchBuffer[i].op);
    }
    t.fetchBuffer.clear();

    // ROB suffix walk: youngest first, undoing rename as we go.
    while (!t.rob.empty()) {
        InstRef ref = t.rob.tail();
        DynInst &inst = pool.get(ref);
        if (inst.fetchStamp <= stamp)
            break;
        t.rob.popTail();
        if (inst.iqSlot != 0xffff) {
            iq.remove(pool, ref);
            panic_if(t.iqCount == 0, "iq count underflow");
            --t.iqCount;
        }
        if (inst.op.hasDest()) {
            t.map->restore(inst.op.dest, inst.prevPhysDest);
            prf.free(inst.physDest);
            if (draUnit)
                draUnit->regFreed(inst.physDest);
        }
        if (inst.op.isStore() && !inst.storeExecCounted)
            t.unexecStoreSeqs.erase(inst.storeSeq);
        if (!inst.op.wrongPath)
            t.replayQueue.pushFront(inst.op);
        measured.squashedOps += 1;
        pool.release(ref);
    }

    // Drop this thread's squashed entries from the DEC-IQ pipe.
    renamePipe.eraseIf([&](const PendingInsert &p) {
        if (p.tid != tid || pool.live(p.ref))
            return false;
        panic_if(t.pipeCount == 0, "pipe count underflow");
        --t.pipeCount;
        return true;
    });

    t.onWrongPath = false;
    t.wrongPathResume = invalidSeqNum;
}

void
Core::tick(Cycle now)
{
    // Under the sparse kernel ticks arrive only at wake cycles; the
    // skipped span is accounted first, against the state that was
    // frozen across it (before events at `now` can change it).
    accountIdleSpan(now);
    lastCycle = now + 1;
    measured.cycles += 1;

    processEvents(now);
    retireStage(now);
    issueStage(now);
    insertStage(now);
    renameStage(now);
    fetchStage(now);

    measured.iqOccupancy.sample(static_cast<double>(iq.size()));
    measured.robOccupancy.sample(static_cast<double>(pool.inUse()));
    countOpenLoops();

    // The dense reference kernel never reads nextActivity(), so it
    // skips the wake computation entirely — keeping it a pure
    // tick-every-cycle baseline with none of the sparse machinery.
    if (sparseKernel)
        computeWake(now);
}

void
Core::countOpenLoops()
{
    // A loop is "open" while it has feedback in flight: a resolution
    // has been produced but its initiation stage has not consumed it
    // yet. O(1) per cycle.
    if (branchPort.inFlight() > 0)
        measured.branchLoopOpenCycles += 1;
    if (loadPort.inFlight() > 0)
        measured.loadLoopOpenCycles += 1;
    if (operandPort.inFlight() > 0)
        measured.operandLoopOpenCycles += 1;
}

bool
Core::backendDrained() const
{
    for (const ThreadState &t : threads) {
        if (!t.rob.empty() || !t.fetchBuffer.empty() ||
            !t.replayQueue.empty()) {
            return false;
        }
        if (!t.exhausted)
            return false;
    }
    return renamePipe.empty();
}

bool
Core::done() const
{
    return backendDrained();
}

std::uint64_t
Core::retiredOps() const
{
    std::uint64_t n = 0;
    for (const ThreadState &t : threads)
        n += t.retired;
    return n;
}

void
Core::checkQuiescent() const
{
    panic_if(!done(), "checkQuiescent before the machine drained");
    panic_if(pool.inUse() != 0, "instruction pool leak: ",
             pool.inUse(), " entries still allocated");
    panic_if(iq.size() != 0, "IQ leak: ", iq.size(),
             " entries still held");
    // Live registers must be exactly the architectural state.
    std::size_t arch_regs =
        threads.size() * std::size_t(RegLayout::numArchRegs);
    panic_if(prf.numFree() + arch_regs != prf.size(),
             "physical register leak: ", prf.size() - prf.numFree(),
             " live, expected ", arch_regs);
    for (const ThreadState &t : threads) {
        panic_if(t.pipeCount != 0 || t.iqCount != 0,
                 "stage counters did not drain");
        panic_if(!t.unexecStoreSeqs.empty(),
                 "memory-ordering state did not drain: ",
                 t.unexecStoreSeqs.size(), " stores outstanding");
    }
}

IntegritySample
Core::integritySample(Cycle now) const
{
    IntegritySample s;
    s.cycle = now;
    s.retired = retiredOps();
    s.issued = issuedSinceBuild;
    s.inFlight = pool.inUse();
    s.windowCapacity = pool.capacity();
    s.iqOccupancy = iq.size();
    s.iqCapacity = cfg.iqEntries;
    s.renamePipe = renamePipe.size();
    s.pendingEvents = events.size();
    for (const ThreadState &t : threads)
        s.frontendWork += t.fetchBuffer.size() + t.replayQueue.size();
    s.done = done();
    return s;
}

std::vector<std::string>
Core::structuralViolations() const
{
    std::vector<std::string> out;
    auto violation = [&out](auto &&...parts) {
        std::ostringstream os;
        (os << ... << parts);
        out.push_back(os.str());
    };

    // Occupancy bounds.
    if (iq.size() > cfg.iqEntries) {
        violation("IQ over capacity: ", iq.size(), "/", cfg.iqEntries);
    }
    if (pool.inUse() > pool.capacity()) {
        violation("in-flight window over capacity: ", pool.inUse(), "/",
                  pool.capacity());
    }

    // Forwarding-buffer window arithmetic: a value produced at t must
    // leave for the RF exactly depth cycles later.
    if (fwd.writebackCycle(0) != cfg.fwdBufferDepth) {
        violation("forwarding-buffer depth drift: writeback after ",
                  fwd.writebackCycle(0), " cycles, configured ",
                  cfg.fwdBufferDepth);
    }

    // Per-thread accounting: every pool entry sits in exactly one ROB;
    // the per-thread IQ/pipe counters reconcile with the structures.
    std::size_t rob_total = 0, iq_count = 0, pipe_count = 0;
    std::size_t dests_in_flight = 0;
    for (std::size_t tid = 0; tid < threads.size(); ++tid) {
        const ThreadState &t = threads[tid];
        rob_total += t.rob.size();
        iq_count += t.iqCount;
        pipe_count += t.pipeCount;

        // ROB program-order monotonicity: fetch stamps must be
        // strictly increasing from head to tail.
        std::uint64_t prev_stamp = 0;
        for (std::size_t i = 0; i < t.rob.size(); ++i) {
            const DynInst &inst = pool.get(t.rob.at(i));
            if (i > 0 && inst.fetchStamp <= prev_stamp) {
                violation("ROB order violated (thread ", tid,
                          ", index ", i, "): stamp ", inst.fetchStamp,
                          " after ", prev_stamp);
                break;
            }
            prev_stamp = inst.fetchStamp;
        }
        for (std::size_t i = 0; i < t.rob.size(); ++i) {
            const DynInst &inst = pool.get(t.rob.at(i));
            if (inst.op.hasDest())
                ++dests_in_flight;
        }
    }
    if (rob_total != pool.inUse()) {
        violation("ROB/pool mismatch: ", rob_total,
                  " ROB entries vs ", pool.inUse(), " pool entries");
    }
    if (iq_count != iq.size()) {
        violation("IQ accounting mismatch: per-thread counters say ",
                  iq_count, ", IQ holds ", iq.size());
    }
    if (pipe_count != renamePipe.size()) {
        violation("DEC-IQ pipe accounting mismatch: counters say ",
                  pipe_count, ", pipe holds ", renamePipe.size());
    }

    // Register free-list conservation: live registers are exactly the
    // per-thread architectural state plus one per in-flight producer.
    std::size_t live = prf.size() - prf.numFree();
    std::size_t expected =
        threads.size() * std::size_t(RegLayout::numArchRegs) +
        dests_in_flight;
    if (live != expected) {
        violation("register free-list conservation violated: ", live,
                  " live, expected ", expected, " (",
                  dests_in_flight, " in-flight producers)");
    }
    return out;
}

void
Core::beginMeasurement()
{
    measured = Statistics{};
    measureStartCycle = lastCycle;
    measureStartRetired = retiredOps();
}

std::uint64_t
Core::retiredOps(ThreadId tid) const
{
    panic_if(tid >= threads.size(), "thread id out of range");
    return threads[tid].retired;
}

void
Core::debugDump(std::ostream &os) const
{
    os << "=== core state @ cycle " << lastCycle << " ===\n";
    os << "pool in use " << pool.inUse() << "/" << pool.capacity()
       << ", IQ " << iq.size() << "/" << iq.entries() << ", pipe "
       << renamePipe.size() << "\n";
    os << "events: execStart " << events.execStartCount() << " (waking "
       << events.wakingExecStartCount() << "), writeback "
       << events.writebackCount() << ", feedback "
       << events.feedbackCount() << "\n";
    for (std::size_t t = 0; t < threads.size(); ++t) {
        const ThreadState &ts = threads[t];
        os << "thread " << t << ": rob " << ts.rob.size()
           << " fetchBuf " << ts.fetchBuffer.size() << " replay "
           << ts.replayQueue.size() << " iqCount " << ts.iqCount
           << " exhausted " << ts.exhausted << " wrongPath "
           << ts.onWrongPath << "\n";
        if (!ts.rob.empty()) {
            const DynInst &h = pool.get(ts.rob.head());
            os << "  rob head: " << h.op.toString() << " state "
               << int(h.state) << " issueCycle " << h.issueCycle
               << " execStart " << h.execStartCycle << " produce "
               << h.produceCycle << " confirm " << h.confirmCycle
               << " pendingEvents " << h.pendingEvents
               << " waitingRecovery " << h.waitingRecovery
               << " mispred " << h.mispredicted << " redirectDone "
               << h.redirectDone << " payload["
               << h.operandInPayload[0] << h.operandInPayload[1]
               << "]";
            for (unsigned i = 0; i < 2; ++i) {
                if (h.physSrc[i] == invalidPhysReg)
                    continue;
                os << " src" << i << "=p" << h.physSrc[i] << "(issueRdy "
                   << prf.issueReadyAt(h.physSrc[i]) << ", actual "
                   << prf.actualReadyAt(h.physSrc[i]) << ", live "
                   << prf.live(h.physSrc[i]) << ", prodLive "
                   << pool.live(prf.producer(h.physSrc[i]))
                   << ", renameProdLive " << pool.live(h.srcProducer[i])
                   << ")";
                if (pool.live(prf.producer(h.physSrc[i]))) {
                    const DynInst &p =
                        pool.get(prf.producer(h.physSrc[i]));
                    os << "\n    producer: " << p.op.toString()
                       << " state " << int(p.state) << " issue "
                       << p.issueCycle << " exec " << p.execStartCycle
                       << " valid " << p.execValid << " pend "
                       << p.pendingEvents << " waitRec "
                       << p.waitingRecovery << " stamp " << p.fetchStamp
                       << " (head stamp " << h.fetchStamp << ")";
                }
            }
            os << "\n";
        }
    }
}

std::string
Core::instTimeline(InstRef ref) const
{
    if (!pool.live(ref))
        return {};
    const DynInst &inst = pool.get(ref);
    std::ostringstream os;
    auto cycle = [&os](const char *label, Cycle c) {
        os << " " << label << " ";
        if (c == invalidCycle)
            os << "-";
        else
            os << c;
    };
    os << inst.op.toString() << " [";
    cycle("fetch", inst.fetchCycle);
    cycle("rename", inst.renameCycle);
    cycle("insert", inst.insertCycle);
    cycle("issue", inst.issueCycle);
    cycle("exec", inst.execStartCycle);
    cycle("produce", inst.produceCycle);
    os << " ]";
    return os.str();
}

double
Core::ipc() const
{
    Cycle cycles_measured = cyclesRun();
    std::uint64_t retired_measured = retiredOps() - measureStartRetired;
    return cycles_measured ? static_cast<double>(retired_measured) /
                                 static_cast<double>(cycles_measured)
                           : 0.0;
}

} // namespace loopsim
