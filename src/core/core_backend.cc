/**
 * @file
 * Core back end: wakeup/select and issue, execution with operand
 * delivery (base RF path or DRA), the load/operand/branch resolution
 * loops, and in-order retire.
 */

#include <algorithm>

#include "base/logging.hh"
#include "core/core.hh"
#include "integrity/fault_injector.hh"

namespace loopsim
{

namespace
{

/** Bins of the operandSource stat vector. */
std::size_t
sourceBin(OperandSource src)
{
    switch (src) {
      case OperandSource::PreRead: return 0;
      case OperandSource::Forward: return 1;
      case OperandSource::Crc: return 2;
      case OperandSource::RegFile: return 3;
      case OperandSource::Payload: return 4;
      case OperandSource::Miss: return 5;
      default: panic("operand source without a stat bin");
    }
}

} // anonymous namespace

void
Core::issueStage(Cycle now)
{
    // Sparse kernel: iqWakeAt is a conservative lower bound on the
    // next cycle at which this stage could free or issue anything
    // (every pending timer key is >= it; see the arm helpers). While
    // it is in the future the stage is provably a no-op; when it is
    // due, the incremental path evaluates only the armed candidates.
    // The dense reference kernel runs the full O(IQ) scan every cycle
    // unconditionally.
    if (sparseKernel) {
        if (now < iqWakeAt)
            return;
        iqWakeAt = invalidCycle;
        issueIncremental(now);
        return;
    }
    issueScanReference(now);
}

void
Core::issueScanReference(Cycle now)
{
    ++scanTicks;
    iqWakeAt = invalidCycle;

    // One fused pass over the occupants does both jobs — confirm-free
    // and wakeup/select — touching each DynInst once:
    //
    //  * Done entries leave the IQ at their confirm cycle, once the
    //    execute stage has had time to notify that no reissue is
    //    needed (loop delay) plus the clear delay (§2.2.2).
    //  * Issued entries (IQ-EX transit) keep their confirm note
    //    alive: they turn Done inside their ExecStart event (which
    //    has no wake hook of its own), so a scan between issue and
    //    Done must not drop the note made at issue.
    //  * InIq entries go through wakeup/select: one instruction per
    //    cluster per cycle, oldest ready first (§2: 8 x 1-wide
    //    arbiters over the unified queue). The same evaluation yields
    //    the entry's next wake cycle; entries whose gate cycles are
    //    unknown (producer unscheduled, recovery wait, never-clearing
    //    wait bit) contribute nothing here and are woken by the hook
    //    at the mutation that schedules them.
    //
    // The scratch buffers are members so the per-tick cost is a
    // clear, not an allocation.
    scratchFree.clear();
    scratchWinner.assign(cfg.numClusters, InstRef{});
    scratchWinnerAge.assign(cfg.numClusters, 0);
    scratchReady.assign(cfg.numClusters, 0);

    for (InstRef ref : iq.occupants()) {
        const DynInst &inst = pool.get(ref);
        if (inst.state == InstState::Done) {
            if (inst.confirmCycle != invalidCycle &&
                inst.pendingEvents == 0) {
                if (now >= inst.confirmCycle)
                    scratchFree.push_back(ref);
                else
                    noteIqWake(inst.confirmCycle);
            }
            continue;
        }
        if (inst.state == InstState::Issued) {
            if (inst.confirmCycle != invalidCycle)
                noteIqWake(inst.confirmCycle);
            continue;
        }
        if (inst.state != InstState::InIq || inst.waitingRecovery)
            continue;
        if (inst.insertCycle == invalidCycle)
            continue;
        if (inst.insertCycle >= now) {
            // Cannot issue in the insertion cycle.
            noteIqWake(inst.insertCycle + 1);
            continue;
        }
        const Cycle r0 = wakeupGateCycle(prf, inst, 0);
        const Cycle r1 = wakeupGateCycle(prf, inst, 1);
        const bool ready = (r0 <= now) & (r1 <= now);
        if (!ready) {
            if (r0 != invalidCycle && r1 != invalidCycle) {
                Cycle c = std::max({r0, r1, now + 1});
                // A load held by the wait bit stays until the table's
                // lazy clear (or until the older stores execute — a
                // hooked mutation).
                if (memDep && inst.op.isLoad()) {
                    const auto &seqs =
                        threads[inst.op.tid].unexecStoreSeqs;
                    if (!seqs.empty() &&
                        *seqs.begin() <= inst.olderStores &&
                        memDep->wouldWait(inst.op.pc)) {
                        const Cycle clear = memDep->nextClearAt();
                        if (clear == invalidCycle)
                            continue; // clears via hooks only
                        c = std::max(c, clear);
                    }
                }
                noteIqWake(c);
            }
            continue;
        }
        // A load whose wait bit is set holds at issue until every
        // older same-thread store has executed (memory trap loop).
        if (memDep && inst.op.isLoad()) {
            const auto &seqs =
                threads[inst.op.tid].unexecStoreSeqs;
            if (!seqs.empty() && *seqs.begin() <= inst.olderStores &&
                memDep->shouldWait(inst.op.pc, now)) {
                const Cycle clear = memDep->nextClearAt();
                if (clear != invalidCycle)
                    noteIqWake(std::max(clear, now + 1));
                continue;
            }
        }
        // Ready: it either wins below (and leaves the scan's concern,
        // becoming Issued) or loses its cluster's arbiter and must be
        // reconsidered next cycle. Only the losers force that revisit,
        // so the wake note is deferred until the winners are known.
        ClusterId c = inst.cluster;
        if (scratchReady[c] < 2)
            ++scratchReady[c];
        if (!scratchWinner[c].valid() ||
            inst.fetchStamp < scratchWinnerAge[c]) {
            scratchWinner[c] = ref;
            scratchWinnerAge[c] = inst.fetchStamp;
        }
    }

    for (InstRef ref : scratchFree) {
        DynInst &inst = pool.get(ref);
        iq.remove(pool, ref);
        ThreadState &t = threads[inst.op.tid];
        panic_if(t.iqCount == 0, "iq count underflow");
        --t.iqCount;
    }

    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        if (scratchReady[c] > 1) {
            // At least one ready entry loses this cluster's arbiter
            // and stays ready in the IQ.
            noteIqWake(now + 1);
            break;
        }
    }

    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        if (scratchWinner[c].valid())
            issueWinner(scratchWinner[c], now);
    }
}

void
Core::issueWinner(InstRef ref, Cycle now)
{
    DynInst &inst = pool.get(ref);
    inst.state = InstState::Issued;
    inst.issueCycle = now;
    ++inst.timesIssued;
    if (recorder)
        recorder->record(trace::EventKind::Issue, now, inst.op, 0,
                         inst.timesIssued, inst.insertCycle);
    measured.issuedOps += 1;
    ++issuedSinceBuild;
    if (inst.timesIssued > 1)
        measured.reissuedOps += 1;
    inst.confirmCycle =
        now + cfg.iqExLatency + cfg.loadFeedback + cfg.iqClearDelay;
    // 21264-style recovery kills *everything* issued in a load
    // shadow, so entries must be retained until any load issued up
    // to a hit-latency earlier has resolved.
    if (cfg.killAllInShadow)
        inst.confirmCycle += MemoryHierarchy::kL1Latency;
    // The entry sits Done in the IQ until its confirm cycle; a
    // later kill reverts it to InIq and re-hooks at reissue.
    noteIqWake(inst.confirmCycle);
    if (sparseKernel)
        armConfirmTimer(inst.confirmCycle, ref);

    // Speculative wakeup of consumers. Loads assume an L1 hit; in
    // Stall mode load consumers wait for the resolved outcome
    // instead (set in handleLoadExec). Fault injection can delay
    // the wakeup (consumers issue late but converge) or drop it
    // outright (consumers never wake: a deliberate wedge the
    // watchdog must catch).
    if (inst.op.hasDest()) {
        bool drop = injector && injector->dropWakeup();
        Cycle delay = injector ? injector->wakeupDelay() : 0;
        if (drop) {
            if (recorder)
                recorder->record(trace::EventKind::Issue, now, inst.op, 1);
        } else if (inst.op.isLoad()) {
            if (cfg.loadRecovery != LoadRecovery::Stall) {
                wakeReg(inst.physDest,
                        now + MemoryHierarchy::kL1Latency + delay);
            }
        } else {
            wakeReg(inst.physDest,
                    now + inst.op.execLatency() + delay);
        }
    }

    // Plain FU ops execute lazily: their ExecStart only stamps
    // timestamps and flips the entry Done, so it can drain at
    // whatever tick comes next (the confirm note above and the
    // wake computation's retire clause cover the cycles at which
    // that Done becomes stage-visible). Loads, stores, branches
    // and DRA executions wake the wheel at the exact cycle.
    schedule(Event{now + cfg.iqExLatency, EventType::ExecStart, 0,
                   ref, now, invalidPhysReg, invalidCycle},
             lazyExecEligible(inst.op));
}

void
Core::issueIncremental(Cycle now)
{
    ++counters.n[KernelCounters::IssueCalls];
    // Issued, confirm pops, wake pops and held loads are this pass's
    // work: a pass that adds to none of them is barren.
    const std::uint64_t work_before =
        counters.sum(KernelCounters::IssueIssued,
                     KernelCounters::IssueBarren);
    // The sparse issue stage: same confirm-free + wakeup/select
    // semantics as issueScanReference(), but over incrementally
    // maintained candidate sets instead of the whole IQ. Every
    // candidate is re-validated here against the reference predicate
    // before it can act, so timers and candidate sets may safely hold
    // stale refs (killed, squashed, retired, regressed gates) — the
    // worst a stale entry can cost is a wasted evaluation, never a
    // wrong issue. What the structures must NOT do is miss a cycle at
    // which the reference scan would have acted; the arm sites
    // (DESIGN.md §14 hook catalog) carry that obligation.

    // Kill victims reverted to InIq since the last pass rejoin the
    // candidate sets first: the reference scan can reissue a killed
    // instruction in the very cycle of the kill.
    for (InstRef ref : readyRecheck) {
        if (!pool.live(ref))
            continue;
        const DynInst &inst = pool.get(ref);
        if (inst.state != InstState::InIq || inst.waitingRecovery)
            continue;
        insertReadyCand(inst, ref);
    }
    readyRecheck.clear();

    // Confirm-free: drain due timers. Each drained entry either
    // frees (exactly the reference conditions), drops as superseded
    // (a reissue armed a later one), or defers to the hook that owns
    // the next transition (pending events re-arm at their last
    // decrement, InIq reverts re-enter via readyRecheck).
    confirmTimer.drain(now, [this, now](InstRef ref) {
        ++counters.n[KernelCounters::IssueConfirmPops];
        if (!pool.live(ref))
            return; // retired or squashed since arming
        DynInst &inst = pool.get(ref);
        if (inst.iqSlot == 0xffff)
            return; // already freed
        if (inst.state == InstState::Issued) {
            // Issued past its confirm cycle: a poisoned execution
            // whose ExecStart never turned it Done. The reference
            // scan stays hot on such an entry (re-noting the stale
            // confirm every cycle) until its kill event lands;
            // mirror that so the wedge stays equally visible to the
            // watchdog.
            if (inst.confirmCycle != invalidCycle &&
                inst.confirmCycle <= now) {
                armConfirmTimer(now + 1, ref);
            }
            return;
        }
        if (inst.state != InstState::Done)
            return;
        if (inst.confirmCycle == invalidCycle ||
            inst.confirmCycle > now) {
            return; // superseded: a newer timer carries the free
        }
        if (inst.pendingEvents != 0)
            return; // the handler re-arms at the last decrement
        iq.remove(pool, ref);
        ThreadState &t = threads[inst.op.tid];
        panic_if(t.iqCount == 0, "iq count underflow");
        --t.iqCount;
    });

    // Wakeup: entries whose gate cycles were all known when armed
    // join their cluster's candidate set at the armed cycle. The set
    // keys by fetchStamp, so duplicates collapse and iteration is
    // oldest-first — the reference arbiter's order.
    wakeTimer.drain(now, [this](InstRef ref) {
        ++counters.n[KernelCounters::IssueWakePops];
        if (!pool.live(ref))
            return;
        const DynInst &inst = pool.get(ref);
        if (inst.state != InstState::InIq || inst.waitingRecovery)
            return;
        insertReadyCand(inst, ref);
    });

    // Select: re-validate every candidate with the reference
    // predicate; the first surviving entry per cluster (oldest
    // fetchStamp) wins its arbiter.
    scratchWinner.assign(cfg.numClusters, InstRef{});
    scratchReady.assign(cfg.numClusters, 0);

    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        auto &cands = clusterReady[c];
        std::size_t out = 0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const InstRef ref = cands[i].ref;
            bool keep = false;
            ++counters.n[KernelCounters::IssueEvals];
            do {
                if (!pool.live(ref))
                    break;
                const DynInst &inst = pool.get(ref);
                if (inst.state != InstState::InIq ||
                    inst.waitingRecovery) {
                    // Issued/Done since arming, or back in recovery
                    // wait: the owning mutation (kill recheck,
                    // payload delivery) re-enters it when
                    // eligibility returns.
                    break;
                }
                keep = true;
                if (inst.insertCycle == invalidCycle)
                    break; // the reference scan skips these, noteless
                if (inst.insertCycle >= now) {
                    // Cannot issue in the insertion cycle.
                    noteIqWake(inst.insertCycle + 1);
                    break;
                }
                const Cycle r0 = wakeupGateCycle(prf, inst, 0);
                const Cycle r1 = wakeupGateCycle(prf, inst, 1);
                if (!((r0 <= now) & (r1 <= now))) {
                    // Gates regressed since arming (producer killed)
                    // or the timer fired early: drop the candidate.
                    // With both gates known the re-arm is immediate;
                    // an unknown gate re-arms via wakeReg when its
                    // producer schedules. No memDep clamp here —
                    // unlike the reference's note, a timer is not
                    // re-evaluated every cycle, and clamping past the
                    // store-execution release would sleep through it.
                    if (r0 != invalidCycle && r1 != invalidCycle)
                        armWakeTimer(std::max({r0, r1, now + 1}), ref);
                    keep = false;
                    break;
                }
                // A load whose wait bit is set holds at issue until
                // every older same-thread store has executed (memory
                // trap loop). It stays a candidate: held loads are
                // re-checked at every pass, which (with the
                // clear-cycle note below) reproduces the reference's
                // per-cycle shouldWait timing at every cycle where
                // that call can observably act.
                if (memDep && inst.op.isLoad()) {
                    const auto &seqs =
                        threads[inst.op.tid].unexecStoreSeqs;
                    if (!seqs.empty() &&
                        *seqs.begin() <= inst.olderStores &&
                        memDep->shouldWait(inst.op.pc, now)) {
                        const Cycle clear = memDep->nextClearAt();
                        if (clear != invalidCycle)
                            noteIqWake(std::max(clear, now + 1));
                        ++counters.n[KernelCounters::IssueHeldLoads];
                        break;
                    }
                }
                if (scratchReady[c] < 2)
                    ++scratchReady[c];
                if (!scratchWinner[c].valid()) {
                    // Oldest stamp: the set is sorted.
                    scratchWinner[c] = ref;
                }
            } while (false);
            if (keep)
                cands[out++] = cands[i];
        }
        cands.resize(out);
    }

    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        if (scratchReady[c] > 1) {
            // At least one ready entry loses this cluster's arbiter
            // and stays ready in the IQ.
            noteIqWake(now + 1);
            break;
        }
    }

    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        if (!scratchWinner[c].valid())
            continue;
        auto &cands = clusterReady[c];
        const std::uint64_t stamp =
            pool.get(scratchWinner[c]).fetchStamp;
        auto it = std::lower_bound(
            cands.begin(), cands.end(), stamp,
            [](const ReadyCand &a, std::uint64_t s) {
                return a.stamp < s;
            });
        if (it != cands.end() && it->stamp == stamp)
            cands.erase(it);
        ++counters.n[KernelCounters::IssueIssued];
        issueWinner(scratchWinner[c], now);
    }

    // Everything still tracked keeps the gate honest: candidates
    // were noted above (losers via the contention note, held loads
    // via their clear cycle, late inserts via insert+1), and the
    // timer heads arm the next confirm/wake cycles.
    noteIqWake(confirmTimer.nextDue());
    noteIqWake(wakeTimer.nextDue());
    if (counters.sum(KernelCounters::IssueIssued,
                     KernelCounters::IssueBarren) == work_before)
        ++counters.n[KernelCounters::IssueBarren];
}

OperandSource
Core::classifyOperand(const DynInst &inst, unsigned idx, Cycle exec_start)
{
    PhysReg reg = inst.physSrc[idx];
    Cycle produced_at = prf.actualReadyAt(reg);

    if (!cfg.dra) {
        // Base machine: operands come from the forwarding buffer or
        // the in-path RF read; by construction there is no gap.
        if (fwd.covers(produced_at, exec_start))
            return OperandSource::Forward;
        panic_if(!prf.writtenBack(reg, exec_start),
                 "base-machine operand neither forwardable nor written "
                 "back");
        return OperandSource::RegFile;
    }

    if (fwd.covers(produced_at, exec_start)) {
        draUnit->forwardHit(reg, inst.cluster);
        return OperandSource::Forward;
    }
    if (draUnit->lookupCached(reg, inst.cluster, exec_start))
        return OperandSource::Crc;
    return OperandSource::Miss;
}

void
Core::handleOperandMiss(DynInst &inst, InstRef ref, Cycle exec_start,
                        unsigned miss_mask)
{
    // Operand resolution loop mis-speculation (§5.4): the missing
    // operands are read from the RF and delivered to the IQ payload;
    // the instruction reissues once they arrive, its issued dependents
    // reissue when the IQ hears of the fault, and the front end stalls
    // while the recovery borrows the RF read ports.
    measured.operandMissEvents += 1;
    for (unsigned i = 0; i < 2; ++i) {
        if (miss_mask & (1u << i))
            measured.operandSources.add(sourceBin(OperandSource::Miss));
    }
    if (recorder) {
        recorder->record(trace::EventKind::Dra, exec_start, inst.op, 0,
                         miss_mask);
        for (std::uint8_t i = 0; i < 2; ++i) {
            if (miss_mask & (1u << i)) {
                recorder->record(trace::EventKind::Dra, exec_start,
                                 inst.op, 1 + i, inst.physSrc[i],
                                 prf.actualReadyAt(inst.physSrc[i]));
            }
        }
    }
    killInstruction(ref, exec_start);
    // waitingRecovery makes the queued recheck drop the faulter; the
    // PayloadDelivery handler re-arms it when the wait ends.
    inst.waitingRecovery = true;

    // The fault is detected one cycle into execution and loops back to
    // the IQ: the kill arrives after the loop delay, the recovered
    // operands a register-file read later. Both travel through the
    // operand port; fault injection may deliver the kill early (the
    // stamp keeps the honest delay, so audit reads catch the cheat).
    Cycle detect = exec_start + 1;
    Cycle signal = detect + cfg.loadFeedback;
    std::uint64_t payload_sid =
        operandPort.send(detect, cfg.loadFeedback + cfg.regfileLatency,
                         OperandMissMsg{miss_mask});
    schedule(Event{signal + cfg.regfileLatency,
                   EventType::PayloadDelivery, 0, ref, invalidCycle,
                   invalidPhysReg, invalidCycle, payload_sid});

    std::uint64_t kill_sid =
        operandPort.send(detect, cfg.loadFeedback,
                         OperandMissMsg{miss_mask});
    Cycle kill_at = signal;
    if (injector) {
        kill_at -= std::min<Cycle>(injector->earlyOperandRead(),
                                   cfg.loadFeedback);
    }
    ++inst.pendingEvents;
    schedule(Event{kill_at, EventType::OperandMissKill, 0, ref,
                   invalidCycle, invalidPhysReg, invalidCycle, kill_sid});

    // §5.4: the front end stalls while the missing operands are read
    // from the register file and forwarded to the instruction payload.
    Cycle stall_end = signal + cfg.regfileLatency;
    renameStallUntil = std::max(renameStallUntil, stall_end);
}

void
Core::handleLoadExec(DynInst &inst, InstRef ref, Cycle exec_start)
{
    MemAccessResult res =
        mem->access(inst.op.effAddr, inst.op.tid, false, exec_start);
    // Fault injection: a stalled cache port or a delayed hit return
    // makes the data late. Marking the access a bank conflict routes
    // it through the model's own load-loop mis-speculation recovery,
    // so the perturbation converges by construction.
    if (injector) {
        Cycle extra = injector->loadDelay() + injector->portStall();
        if (extra > 0) {
            res.latency += static_cast<unsigned>(extra);
            res.bankConflict = true;
        }
    }
    inst.memResult = res;
    inst.memDone = true;
    if (memDep) {
        // Record the access for the store-order trap check. Entries
        // older than the ROB head belong to retired or squashed loads;
        // they are dropped when the list fills, and the list doubles
        // when that frees less than half, so pruning costs O(1)
        // amortised per load.
        ThreadState &t = threads[inst.op.tid];
        std::vector<PerformedLoad> &performed = t.performedLoads;
        if (performed.size() == performed.capacity()) {
            std::uint64_t head_stamp = pool.get(t.rob.head()).fetchStamp;
            std::erase_if(performed, [&](const PerformedLoad &p) {
                return p.stamp < head_stamp;
            });
            if (2 * performed.size() > performed.capacity())
                performed.reserve(2 * performed.capacity() + 16);
        }
        performed.push_back(
            PerformedLoad{inst.op.effAddr >> 3, inst.fetchStamp, ref});
    }
    PhysReg dest = inst.physDest;
    unsigned l1_lat = MemoryHierarchy::kL1Latency;

    if (recorder)
        recorder->record(trace::EventKind::Mem, exec_start, inst.op,
                         static_cast<std::uint8_t>(res.level), res.latency,
                         res.tlbMiss + 2u * res.bankConflict);
    if (res.isPredictableHit()) {
        // The hit speculation was right: data arrives exactly when the
        // speculative wakeup promised.
        Cycle produce = exec_start + res.latency;
        inst.produceCycle = produce;
        prf.setActualReady(dest, produce);
        if (cfg.loadRecovery == LoadRecovery::Stall) {
            Cycle notify = exec_start + l1_lat + cfg.loadFeedback;
            wakeReg(dest, std::max(notify,
                                   produce - cfg.iqExLatency));
        }
        schedule(Event{fwd.writebackCycle(produce), EventType::Writeback,
                       0, InstRef{}, invalidCycle, dest, produce});
        inst.state = InstState::Done;
        return;
    }

    // Mis-speculation on the load resolution loop: a cache miss, a
    // bank conflict, or a TLB trap. Data arrives late; the IQ finds
    // out one loop-feedback later and reverts the issued tree.
    measured.loadMissEvents += 1;
    Cycle produce = exec_start + res.latency +
                    (res.tlbMiss ? cfg.tlbWalkPenalty : 0);
    inst.produceCycle = produce;
    prf.setActualReady(dest, produce);

    // The fill's arrival is announced only missNotice cycles ahead, so
    // consumers issue late and pay (IQ-EX - notice) beyond the data
    // latency itself; a shorter IQ-EX path shrinks this loop (§3.2).
    Cycle advance = std::min<Cycle>(cfg.missNotice, cfg.iqExLatency);
    Cycle notify = exec_start + l1_lat + cfg.loadFeedback;
    if (cfg.loadRecovery == LoadRecovery::Stall) {
        wakeReg(dest, std::max(notify, produce - advance));
    } else {
        // Consumers reissue after the kill; they cannot issue before
        // the IQ has processed the mis-speculation.
        wakeReg(dest, std::max(notify + 1, produce - advance));
    }
    schedule(Event{fwd.writebackCycle(produce), EventType::Writeback, 0,
                   InstRef{}, invalidCycle, dest, produce});

    // The hit/miss outcome exists at the end of the L1 probe and loops
    // back to the IQ after the load feedback delay: stamp the signal
    // accordingly so audit builds can verify no stage saw it earlier.
    Cycle resolved_at = exec_start + l1_lat;
    if (res.tlbMiss) {
        // Memory trap: recovered from the front of the pipe (§2, the
        // Alpha memory trap loop; §3.1, turb3d).
        measured.tlbTraps += 1;
        ++inst.pendingEvents;
        std::uint64_t sid =
            loadPort.send(resolved_at, cfg.loadFeedback,
                          LoadResolveMsg{inst.op.tid, inst.fetchStamp});
        schedule(Event{notify, EventType::TlbTrap, 0, ref,
                       inst.issueCycle, invalidPhysReg, invalidCycle,
                       sid});
    } else if (cfg.loadRecovery == LoadRecovery::Reissue) {
        ++inst.pendingEvents;
        std::uint64_t sid =
            loadPort.send(resolved_at, cfg.loadFeedback,
                          LoadResolveMsg{inst.op.tid, inst.fetchStamp});
        schedule(Event{notify, EventType::LoadMissKill, 0, ref,
                       inst.issueCycle, invalidPhysReg, invalidCycle,
                       sid});
    } else if (cfg.loadRecovery == LoadRecovery::Refetch) {
        // §2.2.2: the alternative of squashing and refetching from the
        // first instruction after the load.
        ++inst.pendingEvents;
        std::uint64_t sid =
            loadPort.send(resolved_at, cfg.loadFeedback,
                          LoadResolveMsg{inst.op.tid, inst.fetchStamp});
        schedule(Event{notify, EventType::TlbTrap, 0, ref,
                       inst.issueCycle, invalidPhysReg, invalidCycle,
                       sid});
    }
    // Stall mode needs no recovery: nothing issued speculatively.

    inst.state = InstState::Done;
}

void
Core::handleBranchExec(DynInst &inst, InstRef ref, Cycle exec_start)
{
    Cycle resolve = exec_start + inst.op.execLatency();
    inst.produceCycle = resolve;
    inst.state = InstState::Done;

    // Calls write the link register.
    if (inst.op.hasDest()) {
        prf.setActualReady(inst.physDest, resolve);
        schedule(Event{fwd.writebackCycle(resolve), EventType::Writeback,
                       0, InstRef{}, invalidCycle, inst.physDest,
                       resolve});
    }

    if (inst.branchResolved)
        return; // a reissued branch resolves only once
    inst.branchResolved = true;

    if (inst.op.wrongPath)
        return; // wrong-path branches never redirect

    if (inst.op.forceMispredict) {
        inst.mispredicted = true;
        measured.branchMispredicts += 1;
        ++inst.pendingEvents;
        // The resolution travels back to fetch through the branch
        // port. Fault injection may schedule the redirect early; the
        // stamp keeps the honest delay, so an audit read catches it.
        std::uint64_t sid = branchPort.send(
            resolve, cfg.branchFeedback,
            BranchResolveMsg{inst.op.tid, inst.fetchStamp});
        Cycle redirect_at = resolve + cfg.branchFeedback;
        if (injector) {
            redirect_at -= std::min<Cycle>(injector->earlyBranchRead(),
                                           cfg.branchFeedback);
        }
        schedule(Event{redirect_at, EventType::BranchRedirect, 0, ref,
                       inst.issueCycle, invalidPhysReg, invalidCycle,
                       sid});
    }
}

void
Core::executeValid(DynInst &inst, InstRef ref, Cycle exec_start)
{
    inst.execValid = true;

    // Figure 6: distribution of the gap between the availability times
    // of the two source operands (0 for fewer than two sources).
    if (!inst.gapSampled && !inst.op.wrongPath) {
        inst.gapSampled = true;
        if (inst.physSrc[0] != invalidPhysReg &&
            inst.physSrc[1] != invalidPhysReg) {
            Cycle a = prf.actualReadyAt(inst.physSrc[0]);
            Cycle b = prf.actualReadyAt(inst.physSrc[1]);
            double gap = a > b ? double(a - b) : double(b - a);
            measured.operandGap.sample(std::min(gap, 255.0));
        } else {
            measured.operandGap.sample(0.0);
        }
    }

    switch (inst.op.opClass) {
      case OpClass::Load:
        handleLoadExec(inst, ref, exec_start);
        break;
      case OpClass::Store: {
        MemAccessResult res = mem->access(inst.op.effAddr, inst.op.tid,
                                          true, exec_start);
        inst.memResult = res;
        inst.memDone = true;
        inst.produceCycle = exec_start + 1;
        inst.state = InstState::Done;
        handleStoreOrdering(inst, ref, exec_start);
        if (res.tlbMiss) {
            // Stores trap on dTLB misses too.
            measured.tlbTraps += 1;
            ++inst.pendingEvents;
            std::uint64_t sid = loadPort.send(
                exec_start + MemoryHierarchy::kL1Latency, cfg.loadFeedback,
                LoadResolveMsg{inst.op.tid, inst.fetchStamp});
            schedule(Event{exec_start + MemoryHierarchy::kL1Latency +
                               cfg.loadFeedback,
                           EventType::TlbTrap, 0, ref, inst.issueCycle,
                           invalidPhysReg, invalidCycle, sid});
        }
        break;
      }
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
        handleBranchExec(inst, ref, exec_start);
        break;
      default: {
        Cycle produce = exec_start + inst.op.execLatency();
        inst.produceCycle = produce;
        inst.state = InstState::Done;
        if (inst.op.hasDest()) {
            prf.setActualReady(inst.physDest, produce);
            schedule(Event{fwd.writebackCycle(produce),
                           EventType::Writeback, 0, InstRef{},
                           invalidCycle, inst.physDest, produce});
        }
        break;
      }
    }
}

void
Core::startExecution(InstRef ref, Cycle exec_start, Cycle issue_stamp)
{
    if (!pool.live(ref))
        return; // squashed while in IQ-EX
    DynInst &inst = pool.get(ref);
    if (inst.state != InstState::Issued)
        return; // killed (and possibly reissued: that has its own event)
    if (inst.issueCycle != issue_stamp)
        return; // stale event from an issue that was killed meanwhile

    inst.execStartCycle = exec_start;

    // Resolve each register source. Payload operands (pre-read or
    // recovered) are already at hand. Others are looked up in the
    // forwarding buffer / CRC / RF; an operand whose producer has not
    // actually delivered (a mis-speculated load shadow) is invalid and
    // the instruction will be reverted by the in-flight kill.
    bool any_invalid = false;
    unsigned miss_mask = 0;
    std::array<OperandSource, 2> srcs{OperandSource::None,
                                      OperandSource::None};

    for (unsigned i = 0; i < 2; ++i) {
        if (inst.physSrc[i] == invalidPhysReg)
            continue;
        if (inst.operandInPayload[i]) {
            srcs[i] = inst.payloadFromRecovery[i] ? OperandSource::Payload
                                                  : OperandSource::PreRead;
            continue;
        }
        if (!prf.actualReady(inst.physSrc[i], exec_start)) {
            any_invalid = true;
            continue;
        }
        srcs[i] = classifyOperand(inst, i, exec_start);
        if (srcs[i] == OperandSource::Miss)
            miss_mask |= 1u << i;
    }

    if (any_invalid) {
        // Poisoned input: no side effects; the load (or operand)
        // resolution loop's kill will revert this instruction.
        if (recorder)
            recorder->record(trace::EventKind::Exec, exec_start, inst.op,
                             1);
        inst.execValid = false;
        return;
    }
    if (recorder)
        recorder->record(trace::EventKind::Exec, exec_start, inst.op);
    if (miss_mask != 0) {
        handleOperandMiss(inst, ref, exec_start, miss_mask);
        return;
    }

    // Account operand delivery (Figure 9). Recovered payload operands
    // were already counted as misses at the faulting execution.
    for (unsigned i = 0; i < 2; ++i) {
        if (srcs[i] == OperandSource::None ||
            srcs[i] == OperandSource::Payload) {
            continue;
        }
        measured.operandSources.add(sourceBin(srcs[i]));
    }

    executeValid(inst, ref, exec_start);
}

void
Core::handleStoreOrdering(DynInst &inst, InstRef ref, Cycle exec_start)
{
    ThreadState &t = threads[inst.op.tid];
    if (!inst.storeExecCounted) {
        inst.storeExecCounted = true;
        t.unexecStoreSeqs.erase(inst.storeSeq);
        // A held load waiting on this store can issue this very cycle
        // (ExecStart events drain before the issue stage runs). Loads
        // only hold on stores through the wait table, so without one
        // no wake is needed.
        if (memDep)
            noteIqWake(exec_start);
    }
    if (!memDep)
        return;

    // Load/store reorder trap detection (the paper's memory trap
    // loop): a *younger* load to the same dword that already performed
    // its access read stale data. The oldest such load restarts from
    // fetch; the wait table learns its PC.
    //
    // Such a load performed with memDep on, so it has an entry in the
    // performed-load list, and pruning spares it: it is in the ROB, so
    // its stamp is not below the head's. Each match is re-checked
    // against the load itself (a live ref is a ROB entry, and a killed
    // load has memDone clear), so stale entries never match and the
    // victim is the one the ROB walk picks.
    Addr dword = inst.op.effAddr >> 3;
    InstRef victim{};
    std::uint64_t victim_stamp = 0;
    for (const PerformedLoad &p : t.performedLoads) {
        if (p.dword != dword || p.stamp <= inst.fetchStamp)
            continue;
        if (victim.valid() && p.stamp >= victim_stamp)
            continue;
        if (!pool.live(p.ref))
            continue;
        const DynInst &cand = pool.get(p.ref);
        if (cand.fetchStamp != p.stamp || !cand.op.isLoad() ||
            !cand.memDone || !cand.execValid) {
            continue;
        }
        victim = p.ref;
        victim_stamp = p.stamp;
    }
    if (audit::enabled()) [[unlikely]] {
        panic_if(orderTrapVictimByRobWalk(t, inst) != victim,
                 "store-order trap check disagrees with the ROB walk: ",
                 inst.op.toString());
    }
    if (!victim.valid())
        return;

    DynInst &load = pool.get(victim);
    measured.memOrderTrapCount += 1;
    memDep->trainTrap(load.op.pc);
    ++load.pendingEvents;
    // The trap restarts the load itself, so the squash stamp is one
    // below its own fetch stamp.
    std::uint64_t sid = loadPort.send(
        exec_start + MemoryHierarchy::kL1Latency, cfg.loadFeedback,
        LoadResolveMsg{load.op.tid, load.fetchStamp - 1});
    schedule(Event{exec_start + MemoryHierarchy::kL1Latency +
                       cfg.loadFeedback,
                   EventType::OrderTrap, 0, victim, invalidCycle,
                   invalidPhysReg, invalidCycle, sid});
    (void)ref;
}

InstRef
Core::orderTrapVictimByRobWalk(const ThreadState &t,
                               const DynInst &store) const
{
    Addr dword = store.op.effAddr >> 3;
    InstRef victim{};
    std::uint64_t victim_stamp = 0;
    for (std::size_t i = 0; i < t.rob.size(); ++i) {
        InstRef r = t.rob.at(i);
        const DynInst &cand = pool.get(r);
        if (cand.fetchStamp <= store.fetchStamp)
            continue;
        if (!cand.op.isLoad() || !cand.memDone || !cand.execValid)
            continue;
        if ((cand.op.effAddr >> 3) != dword)
            continue;
        if (!victim.valid() || cand.fetchStamp < victim_stamp) {
            victim = r;
            victim_stamp = cand.fetchStamp;
        }
    }
    return victim;
}

void
Core::retireStage(Cycle now)
{
    unsigned budget = cfg.width;
    bool progress = true;
    while (budget > 0 && progress) {
        progress = false;
        for (std::size_t i = 0; i < threads.size() && budget > 0; ++i) {
            ThreadId tid = static_cast<ThreadId>(
                (now + i) % threads.size());
            ThreadState &t = threads[tid];
            if (t.rob.empty())
                continue;
            InstRef ref = t.rob.head();
            DynInst &inst = pool.get(ref);
            if (inst.state != InstState::Done || !inst.execValid)
                continue;
            if (inst.confirmCycle == invalidCycle ||
                now < inst.confirmCycle) {
                continue;
            }
            if (inst.produceCycle == invalidCycle ||
                now < inst.produceCycle) {
                continue;
            }
            if (inst.pendingEvents != 0)
                continue;
            if (inst.mispredicted && !inst.redirectDone)
                continue;
            panic_if(inst.op.wrongPath,
                     "retiring a wrong-path instruction");

            if (inst.iqSlot != 0xffff) {
                iq.remove(pool, ref);
                panic_if(t.iqCount == 0, "iq count underflow");
                --t.iqCount;
            }
            if (inst.op.hasDest() &&
                inst.prevPhysDest != invalidPhysReg) {
                prf.free(inst.prevPhysDest);
                if (draUnit)
                    draUnit->regFreed(inst.prevPhysDest);
            }
            if (inst.op.isBranch()) {
                measured.branchesRetired += 1;
            }
            panic_if(inst.op.hasDest() &&
                         prf.actualReadyAt(inst.physDest) == invalidCycle,
                     "retiring producer of an unproduced register: ",
                     inst.op.toString());
            if (recorder)
                recorder->record(trace::EventKind::Retire, now, inst.op, 0,
                                 inst.produceCycle);
            t.rob.popHead();
            pool.release(ref);
            ++t.retired;
            measured.retiredTotal += 1;
            // Process-level fault injection (crash_at_op/hang_at_op):
            // kills or hangs the host process at an exact retired-op
            // count to prove the supervision layer end-to-end.
            if (injector && injector->processFaultsArmed())
                injector->opRetired(retiredOps());
            --budget;
            progress = true;
        }
    }
}

} // namespace loopsim
