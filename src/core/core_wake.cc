/**
 * @file
 * Sparse-kernel support for the core: span-weighted accounting for the
 * cycles the event wheel skipped, and the per-stage wake-cycle
 * computation that feeds Clocked::nextActivity (DESIGN.md §14).
 *
 * The contract with the dense reference kernel is exact equivalence:
 * a wheel that ticks the core at cycle W after last ticking it at
 * cycle L must produce the same architectural state and the same
 * statistics as a dense kernel ticking every cycle in (L, W]. That
 * holds because (a) between ticks nothing can change core state — all
 * events and all stage actions happen inside tick() — and (b) every
 * per-cycle stat the dense kernel accumulates on an idle cycle is a
 * function of that frozen state, so it can be replayed as
 * value × span-length with bit-identical results (all sampled values
 * are integers; integer-valued double accumulation is exact to 2^53).
 *
 * computeWake() must therefore cover every cycle at which any stage
 * *could* act. Waking too early is harmless (the tick degenerates to
 * the dense kernel's idle scan); waking too late would diverge — the
 * dense differential suite (ctest -L kernel) pins this.
 *
 * The IQ does not need a scan here: issueStage() maintains iqWakeAt —
 * recomputed exactly whenever it scans, lowered conservatively by the
 * noteIqWake()/wakeReg() hooks at every mutation that can advance an
 * entry's readiness — so this pass is O(threads), not O(window).
 */

#include <algorithm>
#include <bit>

#include "core/core.hh"

namespace loopsim
{

void
Core::accountIdleSpan(Cycle now)
{
    if (!tickedOnce) {
        // First tick: measure spans from here, like the dense kernel
        // would have (it never ticks before the first run() cycle).
        tickedOnce = true;
        lastCycle = now;
        return;
    }
    if (now <= lastCycle)
        return; // consecutive cycles: nothing was skipped
    const Cycle gap = now - lastCycle;
    const double n = static_cast<double>(gap);

    measured.cycles += n;

    // pickFetchThread() advances the SMT round-robin cursor once per
    // dense tick, eligible fetch thread or not.
    rrFetchCursor += static_cast<unsigned>(gap);

    // renameStage() counts one recovery-stall cycle for every cycle
    // before renameStallUntil, unconditionally.
    if (renameStallUntil > lastCycle) {
        const Cycle stalled =
            std::min(now, renameStallUntil) - lastCycle;
        measured.recoveryStallCycles += static_cast<double>(stalled);
    }

    // End-of-cycle occupancy samples: the occupancies are frozen
    // across the span, so one weighted sample replays gap identical
    // per-cycle samples.
    measured.iqOccupancy.sample(static_cast<double>(iq.size()), gap);
    measured.robOccupancy.sample(static_cast<double>(pool.inUse()), gap);

    // countOpenLoops() over the span: port in-flight counts only
    // change inside ticks, so each loop was either open for the whole
    // span or closed for the whole span.
    if (branchPort.inFlight() > 0)
        measured.branchLoopOpenCycles += n;
    if (loadPort.inFlight() > 0)
        measured.loadLoopOpenCycles += n;
    if (operandPort.inFlight() > 0)
        measured.operandLoopOpenCycles += n;
}

void
Core::computeWake(Cycle now)
{
    Cycle wake = invalidCycle;
    const Cycle next = now + 1;
    // The clause that set the earliest wake is this tick's wake
    // reason (KernelCounters).
    unsigned winner = KernelCounters::WakeNone;
    auto consider = [&wake, &winner](Cycle c, unsigned clause) {
        if (c < wake) {
            wake = c;
            winner = clause;
        }
    };

    // Pipeline events: the earliest waking event is the earliest due
    // (processEvents pops everything due, so whatever remains is
    // strictly future). Lazy events are deliberately absent — they
    // have no observable effect until some later tick reads the
    // timestamps they carry. A ROB head whose lazy ExecStart has not
    // drained needs no clause of its own: its confirm timer keeps the
    // iq clause below at or before the earliest cycle it could retire,
    // and that tick drains the event.
    if (const Cycle ev_wake = events.nextWaking();
        ev_wake != invalidCycle) {
        consider(std::max(ev_wake, next), KernelCounters::WakeEvent);
    }

    // The issue stage: its own fused scan (or a hook since then)
    // already knows the earliest cycle it could act.
    consider(std::max(iqWakeAt, next), KernelCounters::WakeIq);

    // Retire: a ROB head that has finished and waits only on its
    // confirm/produce cycles. Heads blocked on anything else (pending
    // events, a missing redirect, not yet executed) unblock only via
    // an event or another stage — both are ticks, which recompute.
    for (const ThreadState &t : threads) {
        if (t.rob.empty())
            continue;
        const DynInst &inst = pool.get(t.rob.head());
        if (inst.state != InstState::Done || !inst.execValid)
            continue;
        if (inst.pendingEvents != 0)
            continue;
        if (inst.mispredicted && !inst.redirectDone)
            continue;
        if (inst.confirmCycle == invalidCycle ||
            inst.produceCycle == invalidCycle) {
            continue;
        }
        consider(std::max({inst.confirmCycle, inst.produceCycle, next}),
                 KernelCounters::WakeRetire);
    }

    // Insert: the DEC-IQ pipe delivers its head at insertAt. An IQ-full
    // stall clears only through confirm-free/retire/squash (ticks).
    if (!renamePipe.empty() && !iq.full()) {
        consider(std::max(renamePipe.front().insertAt, next),
                 KernelCounters::WakeInsert);
    }

    // Rename: a fetch-buffer head kept out only by time (its own
    // pipeline latency or a recovery stall). Resource-blocked heads
    // (window/register/partition pressure, a barrier, pipe back-up)
    // unblock only via other stages' progress — ticks.
    if (!renamePipe.full()) {
        for (const ThreadState &t : threads) {
            if (t.fetchBuffer.empty())
                continue;
            const FetchedOp &fop = t.fetchBuffer.front();
            if (fop.op.isBarrier() && !t.rob.empty())
                continue;
            if (pool.full())
                continue;
            if (fop.op.hasDest() && !prf.hasFree())
                continue;
            if (threads.size() > 1) {
                const unsigned n_threads =
                    static_cast<unsigned>(threads.size());
                if (t.rob.size() >= cfg.robEntries / n_threads)
                    continue;
                if (t.iqCount + t.pipeCount >=
                    cfg.iqEntries / n_threads) {
                    continue;
                }
            }
            consider(std::max({fop.renameReadyAt, renameStallUntil,
                               next}),
                     KernelCounters::WakeRename);
        }
    }

    // Fetch: an eligible thread fetches next cycle. Buffer-full or
    // workless threads change only via rename progress / events — ticks.
    for (const ThreadState &t : threads) {
        if (t.fetchBuffer.full())
            continue;
        const bool has_work = !t.replayQueue.empty() || !t.exhausted ||
                              (t.onWrongPath && cfg.wrongPathFetch);
        if (!has_work)
            continue;
        if (t.onWrongPath && !cfg.wrongPathFetch)
            continue;
        consider(next, KernelCounters::WakeFetch);
    }

    ++counters.n[winner];
    // Power-of-two gap bins: 1, 2-3, 4-7, ..., 128+.
    const unsigned gap_bin =
        wake == invalidCycle
            ? KernelCounters::GapNone
            : KernelCounters::Gap1 +
                  std::min<unsigned>(std::bit_width(wake - now), 8) - 1;
    ++counters.n[gap_bin];
    wakeCycle = wake;
}

Cycle
Core::nextActivity(Cycle now) const
{
    // wakeCycle starts at 0, so a fresh core asks for an immediate
    // tick; afterwards it is always > the cycle that computed it.
    return std::max(wakeCycle, now);
}

void
Core::armWokenConsumers(PhysReg reg)
{
    // The producer of @p reg just scheduled (or rescheduled) its
    // wakeup, so each InIq consumer whose *other* gate is also known
    // now has a computable earliest-issue cycle. Consumers renamed
    // after this wakeup are not in the list yet; they are armed at
    // their own insert (both gates are known by then). Consumers
    // still in recovery wait are re-armed by the payload delivery.
    const InstRef prod = prf.producer(reg);
    if (!pool.live(prod))
        return;
    for (const InstRef c : pool.get(prod).consumers) {
        if (!pool.live(c))
            continue;
        const DynInst &ci = pool.get(c);
        if (ci.state != InstState::InIq || ci.waitingRecovery ||
            ci.insertCycle == invalidCycle) {
            continue;
        }
        if (isReadyCand(ci))
            continue; // already evaluated every pass
        const Cycle r0 = wakeupGateCycle(prf, ci, 0);
        const Cycle r1 = wakeupGateCycle(prf, ci, 1);
        if (r0 != invalidCycle && r1 != invalidCycle)
            armWakeTimer(std::max({r0, r1, ci.insertCycle + 1}), c);
    }
}

void
Core::prepareKernel(KernelMode mode)
{
    sparseKernel = mode == KernelMode::Sparse;

    // Rebuild the incremental ready tracking from the live IQ
    // contents. run() calls this before every run segment — warmup
    // loops re-run a warm core many times — so the rebuild must be a
    // pure function of current state, never of what a previous
    // segment had armed. Arming everything at cycle 0 means the first
    // issue pass re-derives the exact candidate set; early arming is
    // harmless by construction (candidates are re-validated).
    wakeTimer.reset();
    confirmTimer.reset();
    clusterReady.resize(cfg.numClusters);
    for (auto &cands : clusterReady)
        cands.clear();
    readyRecheck.clear();
    if (!sparseKernel)
        return;
    iqWakeAt = 0;
    for (const InstRef ref : iq.occupants()) {
        const DynInst &inst = pool.get(ref);
        if (inst.state == InstState::InIq) {
            if (!inst.waitingRecovery)
                wakeTimer.push(0, ref);
            continue;
        }
        // Issued or Done: the pending confirm (if any) is the entry's
        // next transition. Entries gated on pending events re-arm at
        // the last decrement, but arming here too is merely early.
        if (inst.confirmCycle != invalidCycle)
            confirmTimer.push(inst.confirmCycle, ref);
    }
}

} // namespace loopsim
