/**
 * @file
 * The simulated processor core: an 8-wide, clustered, SMT, out-of-order
 * pipeline modelled at cycle granularity, reproducing the base machine
 * of "Loose Loops Sink Chips" (HPCA 2002) §2 and, when enabled, the
 * Distributed Register Algorithm of §4-§5.
 *
 * Loop discipline: every feedback signal — load hit/miss, branch
 * resolution, DRA operand miss — becomes visible to its initiation
 * stage only after the configured loop delay, mirroring the paper's
 * (ASIM-enforced) no-global-knowledge rule. Speculation is repaired by
 * issue-stage reissue (load/operand loops) or fetch-stage squash
 * (branch loop, memory traps), with rename-map rollback by ROB walk.
 */

#ifndef LOOPSIM_CORE_CORE_HH
#define LOOPSIM_CORE_CORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "base/annotations.hh"
#include "base/circular_buffer.hh"
#include "base/types.hh"
#include "core/dyn_inst.hh"
#include "core/event_queue.hh"
#include "core/forwarding_buffer.hh"
#include "core/instruction_queue.hh"
#include "core/machine_config.hh"
#include "core/mem_dep.hh"
#include "core/register_file.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "dra/dra_unit.hh"
#include "integrity/probe.hh"
#include "mem/hierarchy.hh"
#include "sim/feedback_port.hh"
#include "sim/simulator.hh"
#include "stats/statistics.hh"
#include "trace/recorder.hh"
#include "workload/generator.hh"

namespace loopsim
{

class Config;
class FaultInjector;

/** @name Feedback-loop messages (see sim/feedback_port.hh)
 *
 * The payloads carried by the three paper loops. They travel only
 * through a FeedbackPort: writers stamp them with the resolution cycle
 * and the configured loop delay, readers unwrap them with read(now),
 * and audit builds verify the discipline. tools/loop_lint.py rejects
 * constructions of these types outside a port send.
 */
/// @{
/** Branch resolution into fetch: squash parameters for the redirect. */
struct BranchResolveMsg
{
    ThreadId tid = 0;
    /** Squash everything younger than this fetch stamp. */
    std::uint64_t squashStamp = 0;
};

/** Load hit/miss resolution into issue (and memory traps into fetch). */
struct LoadResolveMsg
{
    ThreadId tid = 0;
    /** Traps: squash everything younger than this fetch stamp. */
    std::uint64_t squashStamp = 0;
};

/** DRA operand-miss resolution into issue (§5.4). */
struct OperandMissMsg
{
    /** Bit i set: source operand i missed and is being recovered. */
    unsigned missMask = 0;
};
/// @}

class Core : public Clocked, public IntegrityProbe
{
  public:
    /**
     * @param cfg     raw configuration ("core.*", "dra.*",
     *                "integrity.fault.*" and "mem.tlb.walk" keys)
     * @param sources one trace source per hardware thread (not owned;
     *                must outlive the core)
     */
    Core(const Config &cfg, std::vector<TraceSource *> sources);
    ~Core() override;

    void tick(Cycle now) override;
    bool done() const override;
    /**
     * Sparse-kernel wake cycle: the min over the per-stage wake cycles
     * computed at the end of the previous tick (core_wake.cc). Every
     * cycle the dense kernel would have *acted* on is covered; cycles
     * where every stage only re-evaluates frozen state and declines
     * are skipped and reconstructed by span accounting.
     */
    Cycle nextActivity(Cycle now) const override;
    std::string name() const override { return "core"; }
    /** Under the dense reference kernel the issue-stage gate, the
     *  post-tick wake computation and the incremental ready tracking
     *  are switched off entirely, keeping the baseline a pure
     *  tick-every-cycle machine. Under the sparse kernel the ready
     *  structures are rebuilt from the current IQ contents — run() may
     *  be called repeatedly on a warm core (warmup loops), so the
     *  rebuild is idempotent. Defined in core_wake.cc. */
    void prepareKernel(KernelMode mode) override;

    /** Ticks whose issue stage ran the reference O(IQ) fused scan
     *  (every dense tick; zero under the incremental sparse path). */
    std::uint64_t fullScanTicks() const override { return scanTicks; }

    /** Since construction, warmup included, like the tick counts. */
    KernelCounters kernelCounters() const override { return counters; }

    /** @name Results */
    /// @{
    std::uint64_t retiredOps() const;
    std::uint64_t retiredOps(ThreadId tid) const;
    Cycle cyclesRun() const { return lastCycle - measureStartCycle; }
    double ipc() const;

    /**
     * End the warmup phase: assign a fresh set of statistics and
     * measure IPC from this point on (the caches, TLB and pipeline
     * keep their state and counters, like the paper's warmed
     * measurement runs).
     */
    void beginMeasurement();
    /// @}

    const MachineConfig &machine() const { return cfg; }

    /**
     * Unqualified name → statistic for every scalar the harness
     * exports into RunResult::scalars, in a fixed order. Built at
     * construction; the handles point into this core.
     */
    const std::vector<std::pair<const char *, const stats::Stat *>> &
    exportedStats() const
    {
        return exported;
    }
    const MemoryHierarchy &memory() const { return *mem; }
    const DraUnit *dra() const { return draUnit.get(); }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads.size());
    }

    /** Diagnostic dump of pipeline state (stuck-pipeline debugging). */
    void debugDump(std::ostream &os) const;

    /** @name IntegrityProbe (watchdog observation surface) */
    /// @{
    IntegritySample integritySample(Cycle now) const override;
    /**
     * Structural invariant sweep: ROB program-order monotonicity,
     * IQ/ROB occupancy accounting, per-thread stage counters,
     * forwarding-buffer window arithmetic, and physical-register
     * free-list conservation. O(in-flight); called by the watchdog
     * behind its debug gate, or directly by tests.
     */
    std::vector<std::string> structuralViolations() const override;
    void dumpState(std::ostream &os) const override { debugDump(os); }
    std::string probeName() const override { return name(); }
    /// @}

    /** The reorder-trap wait table, or nullptr when reorder traps
     *  are off. */
    const MemDepPredictor *memDependence() const { return memDep.get(); }

    /** The fault injector, or nullptr when fault injection is off. */
    const FaultInjector *faultInjector() const { return injector.get(); }

    /** @name Feedback ports (loop-discipline enforcement surface)
     *
     * Exposed read-only so tests can assert that the three paper loops
     * actually flow through the ports (delivered() > 0) and that audit
     * runs drained every in-flight signal they read.
     */
    /// @{
    const FeedbackPort<BranchResolveMsg> &branchResolvePort() const
    {
        return branchPort;
    }
    const FeedbackPort<LoadResolveMsg> &loadResolvePort() const
    {
        return loadPort;
    }
    const FeedbackPort<OperandMissMsg> &operandMissPort() const
    {
        return operandPort;
    }
    /// @}

    /**
     * Panic unless the machine has fully drained: no instructions in
     * flight, every IQ slot free, and every physical register either
     * architecturally mapped or on the free list. Call after done();
     * catches resource leaks in recovery paths.
     */
    void checkQuiescent() const;

    /** Empirical CDF source for Figure 6. */
    const stats::Distribution &operandGapStat() const
    {
        return measured.operandGap;
    }
    /** Operand-location breakdown for Figure 9: bin i counts
     *  OperandSource i + 1 (None has no bin). */
    const stats::Vector &operandSourceStat() const
    {
        return measured.operandSources;
    }

    /** Keep every event of this run for the Gantt and table views
     *  (trace/recorder.hh). Call before the run: the returned stream
     *  fills, in simulation order, as the run goes. */
    const std::vector<trace::Event> &recordEvents();

    /**
     * Drain this run's loop-event trace (empty when trace collection
     * is off). Events are in simulation order: every feedback delivery
     * the port read sites observed, with its write-cycle / loop-delay /
     * consume-cycle stamps.
     */
    std::vector<trace::LoopEvent> takeLoopTrace();

    /** Does this core hold an event recorder? (tests) */
    bool recording() const { return recorder != nullptr; }

  private:
    /** @name Pipeline event machinery */
    /// @{
    /** Scheduling a waking event is itself a wake declaration: the
     *  event's cycle feeds nextActivity() through
     *  EventQueue::nextWaking() (lazy events opt out of that, see
     *  `events`). */
    LOOPSIM_WAKE_HOOK void schedule(Event ev, bool lazy = false);
    void processEvents(Cycle now);

    /** Can this op's ExecStart be lazy? True for plain
     *  functional-unit ops on non-DRA machines: their execution only
     *  writes timestamps, flips the entry to Done and schedules a lazy
     *  Writeback — no port message, no squash, no same-cycle effect on
     *  any stage except retire eligibility, which computeWake()'s
     *  retire clause reconstructs from the issue cycle. Branches
     *  qualify too when they are statically known to neither redirect
     *  (forceMispredict is resolved at fetch; wrong-path branches
     *  never redirect) nor write a link register. Loads (kill/trap
     *  scheduling at resolve), stores (held-load release, trap
     *  scheduling), redirecting branches and every DRA execution
     *  (operand-miss recovery) must keep waking the wheel. */
    bool
    lazyExecEligible(const MicroOp &op) const
    {
        if (draUnit || op.isLoad() || op.isStore())
            return false;
        if (op.isBranch())
            return !op.forceMispredict && !op.hasDest();
        return true;
    }

    /** Record that the issue stage might act at cycle @p c (it can
     *  only lower the cached iqWakeAt). Every mutation that can make
     *  an IQ entry confirm-free or issueable earlier must pass
     *  through here — see issueStage()'s gate. */
    LOOPSIM_WAKE_HOOK void
    noteIqWake(Cycle c)
    {
        if (c < iqWakeAt)
            iqWakeAt = c;
    }

    /** setIssueReady plus the issue-stage wake note: every scoreboard
     *  wakeup is a potential issue at @p at. Under the sparse kernel
     *  it also walks the producer's consumer list and arms wake
     *  timers for entries whose gate cycles just became fully known
     *  (the incremental ready tracking's only entry point for
     *  "producer scheduled after the consumer was inserted"). */
    LOOPSIM_WAKE_HOOK void
    wakeReg(PhysReg reg, Cycle at)
    {
        prf.setIssueReady(reg, at);
        noteIqWake(at);
        if (sparseKernel)
            armWokenConsumers(reg);
    }

    /** @name Incremental per-cluster ready tracking (sparse kernel)
     *
     * The sparse issue stage never rescans the IQ; instead every
     * mutation that can advance an entry's eligibility arms one of
     * these structures (DESIGN.md §14):
     *
     *  - wakeTimer: calendar ring of (cycle, ref) — "this InIq
     *    entry's gates may all be satisfied at `cycle`". Drained
     *    entries join clusterReady.
     *  - clusterReady: per-cluster map keyed by fetchStamp — the
     *    oldest-first candidate sets the select loop arbitrates over.
     *    Entries are re-validated against the full reference
     *    predicate at every evaluation, so stale refs are erased, not
     *    trusted.
     *  - confirmTimer: calendar ring of (cycle, ref) — "this
     *    Issued/Done entry may confirm-free at `cycle`".
     *  - readyRecheck: kill victims reverted to InIq this cycle; the
     *    next issue pass re-inserts them (reissue can happen in the
     *    kill cycle, like the dense scan would).
     *
     * The arm helpers self-note iqWakeAt, so "every pending timer key
     * is >= iqWakeAt" is a local invariant and the issue-stage gate
     * can never sleep through an armed cycle.
     */
    /// @{
    LOOPSIM_WAKE_HOOK void
    armWakeTimer(Cycle at, InstRef ref)
    {
        wakeTimer.push(at, ref);
        noteIqWake(at);
    }

    LOOPSIM_WAKE_HOOK void
    armConfirmTimer(Cycle at, InstRef ref)
    {
        confirmTimer.push(at, ref);
        noteIqWake(at);
    }

    /** Queue a kill victim for re-evaluation at the next issue pass.
     *  The note's cycle 0 only means "the gate must not skip the next
     *  tick" — the pass itself recomputes the exact wake. */
    LOOPSIM_WAKE_HOOK void
    queueReadyRecheck(InstRef ref)
    {
        readyRecheck.push_back(ref);
        noteIqWake(0);
    }

    /** Arm wake timers for @p reg's producer's consumers (see
     *  wakeReg). Defined in core_wake.cc. */
    LOOPSIM_WAKE_HOOK void armWokenConsumers(PhysReg reg);

    /** Sorted-insert @p ref into its cluster's candidate set; a
     *  duplicate stamp is a no-op. Membership alone never issues
     *  anything — candidates are re-validated against the reference
     *  predicate every pass — so inserting early or redundantly is
     *  safe. */
    void
    insertReadyCand(const DynInst &inst, InstRef ref)
    {
        auto &cands = clusterReady[inst.cluster];
        auto it = std::lower_bound(
            cands.begin(), cands.end(), inst.fetchStamp,
            [](const ReadyCand &a, std::uint64_t s) {
                return a.stamp < s;
            });
        if (it != cands.end() && it->stamp == inst.fetchStamp)
            return;
        cands.insert(it, ReadyCand{inst.fetchStamp, ref});
    }

    /** True when @p inst is already in its cluster's candidate set
     *  (arm sites skip the timer then: membership guarantees
     *  evaluation at every pass the gate lets through). */
    bool
    isReadyCand(const DynInst &inst) const
    {
        const auto &cands = clusterReady[inst.cluster];
        auto it = std::lower_bound(
            cands.begin(), cands.end(), inst.fetchStamp,
            [](const ReadyCand &a, std::uint64_t s) {
                return a.stamp < s;
            });
        return it != cands.end() && it->stamp == inst.fetchStamp;
    }
    /// @}

    /** An op waiting to reach the rename point. */
    struct FetchedOp
    {
        MicroOp op;
        Cycle renameReadyAt;
    };

    /** A renamed op traversing the rest of the DEC-IQ pipe. */
    struct PendingInsert
    {
        InstRef ref;
        Cycle insertAt;
        ThreadId tid;
    };

    /** A load's performed access, kept for the store-order trap
     *  check (see handleStoreOrdering). */
    struct PerformedLoad
    {
        Addr dword;
        std::uint64_t stamp;
        InstRef ref;
    };

    struct ThreadState
    {
        /** Ring capacities come from the machine's own bounds; see
         *  the Core constructor. */
        ThreadState(std::size_t rob_cap, std::size_t fetch_cap,
                    std::size_t replay_cap)
            : rob(rob_cap), fetchBuffer(fetch_cap), replayQueue(replay_cap)
        {}

        TraceSource *src = nullptr;
        std::unique_ptr<RenameMap> map;
        ReorderBuffer rob;
        CircularBuffer<FetchedOp> fetchBuffer;
        /** Correct-path squash victims awaiting refetch, oldest first. */
        CircularBuffer<MicroOp> replayQueue;
        bool exhausted = false;
        bool onWrongPath = false;
        SeqNum wrongPathResume = invalidSeqNum;
        unsigned pipeCount = 0; ///< this thread's PendingInsert entries
        unsigned iqCount = 0;
        std::uint64_t fetched = 0;
        std::uint64_t retired = 0;
        /** Memory-ordering state: store sequence numbering and the
         *  set of renamed-but-unexecuted store sequence numbers. */
        std::uint64_t storeRenameCount = 0;
        std::set<std::uint64_t> unexecStoreSeqs;
        /** Every access a load performed while memory-dependence
         *  prediction is on, in execution order. Entries go stale when
         *  the load is killed, squashed or retired; the trap check
         *  re-checks each match against the load itself. */
        std::vector<PerformedLoad> performedLoads;
    };

    /** @name Stage logic (one call per cycle each) */
    /// @{
    void fetchStage(Cycle now);
    void renameStage(Cycle now);
    void insertStage(Cycle now);
    void issueStage(Cycle now);
    void retireStage(Cycle now);
    /// @}

    /** Fetch helpers. */
    ThreadId pickFetchThread();
    bool fetchOne(ThreadState &t, ThreadId tid, Cycle now);

    /** Rename one op; returns false when resources stall it. */
    bool renameOne(ThreadState &t, ThreadId tid, FetchedOp &fop,
                   Cycle now);

    /** Execution. */
    void startExecution(InstRef ref, Cycle exec_start, Cycle issue_stamp);
    void executeValid(DynInst &inst, InstRef ref, Cycle exec_start);
    void handleLoadExec(DynInst &inst, InstRef ref, Cycle exec_start);
    void handleBranchExec(DynInst &inst, InstRef ref, Cycle exec_start);
    void handleOperandMiss(DynInst &inst, InstRef ref, Cycle exec_start,
                           unsigned miss_mask);

    /** Record the feedback delivery @p sig, consumed at @p now for
     *  @p ref, on the event stream, if there is one. Operand-loop
     *  messages carry no thread: it is read off the instruction. */
    template <class Msg>
    void recordLoop(trace::LoopEventType type,
                    const DelayedSignal<Msg> &sig, InstRef ref, Cycle now);

    /** Revert an issued instruction to waiting state at @p now.
     *  Reverting to InIq re-arms issue eligibility, so the victim is
     *  queued for a ready recheck (sparse) and callers owe a wake note
     *  (loopsim::wake_state propagates the obligation to them). */
    LOOPSIM_WAKE_STATE void killInstruction(InstRef ref, Cycle now);
    /** Kill the issued dependency tree rooted at @p root (§2.2.2). */
    LOOPSIM_WAKE_STATE void killDependencyTree(InstRef root, Cycle now);
    /** 21264 mode: kill everything issued in the load shadow. */
    LOOPSIM_WAKE_STATE void killLoadShadow(const DynInst &load,
                                           Cycle now);

    /** Squash all ops of @p tid younger than @p stamp (fetch-stage
     *  recovery); correct-path victims go to the replay queue. */
    LOOPSIM_WAKE_STATE void squashYounger(ThreadId tid,
                                          std::uint64_t stamp, Cycle now);

    /** Memory-ordering bookkeeping for a store's first valid
     *  execution: mark it executed and detect reorder traps. */
    void handleStoreOrdering(DynInst &inst, InstRef ref,
                             Cycle exec_start);
    /** The reorder-trap victim found by walking the whole ROB: the
     *  reference the performed-load list is audited against. */
    InstRef orderTrapVictimByRobWalk(const ThreadState &t,
                                     const DynInst &store) const;

    /** Operand classification at execute (Figure 9 accounting). */
    OperandSource classifyOperand(const DynInst &inst, unsigned idx,
                                  Cycle exec_start);

    bool backendDrained() const;

    /** @name Issue-stage internals (core_backend.cc) */
    /// @{
    /** The reference fused O(IQ) confirm-free + wakeup/select scan:
     *  the dense kernel's issue stage, and the semantics the sparse
     *  incremental path must reproduce byte-identically. */
    void issueScanReference(Cycle now);
    /** The sparse path: drain timers, re-validate the per-cluster
     *  ready sets, select. */
    void issueIncremental(Cycle now);
    /** Issue one select winner: state/stat bookkeeping, confirm note,
     *  speculative consumer wakeup, ExecStart scheduling. Shared by
     *  both paths so event and wakeup order are identical. */
    LOOPSIM_WAKE_STATE void issueWinner(InstRef ref, Cycle now);
    /// @}

    /** Per-cycle loop-open counting (see DESIGN.md §11): one cycle for
     *  each loop with feedback in flight. */
    void countOpenLoops();

    /** @name Sparse-kernel support (core_wake.cc, DESIGN.md §14) */
    /// @{
    /** Replay the per-cycle accounting the dense kernel would have
     *  done over the skipped span [lastCycle, @p now): cycle counts,
     *  occupancy averages, loop-open counters, the recovery-stall
     *  counter and the fetch round-robin cursor. All
     *  sampled values are frozen across the span (no tick, no event),
     *  so weighted samples are bit-identical to per-cycle ones. */
    void accountIdleSpan(Cycle now);
    /** Recompute wakeCycle from post-tick state: the earliest future
     *  cycle at which any stage could act. */
    LOOPSIM_WAKE_HOOK void computeWake(Cycle now);
    /// @}

    /** One-line timeline of @p ref for discipline-violation reports
     *  (empty when the instruction is no longer live). */
    std::string instTimeline(InstRef ref) const;

    MachineConfig cfg;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<DraUnit> draUnit;
    std::unique_ptr<MemDepPredictor> memDep;
    std::unique_ptr<FaultInjector> injector;

    InstPool pool;
    PhysRegFile prf;
    InstructionQueue iq;
    ForwardingBuffer fwd;

    std::vector<ThreadState> threads;
    CircularBuffer<PendingInsert> renamePipe;

    /** Pipeline events, one exact-order queue per class (see
     *  core/event_queue.hh). Waking events' cycles feed
     *  nextActivity(), so the wheel always ticks the core when one is
     *  due. Lazy events (Writebacks, plus ExecStarts that pass
     *  lazyExecEligible()) are updates whose effects are unobservable
     *  until the next read, which can only happen inside a tick. They
     *  do NOT wake the wheel; processEvents() drains them in exact
     *  dense order at whatever tick comes next, passing each event its
     *  own cycle. Since no tick ran between a lazy event's cycle and
     *  its drain, the state its handler inspects (liveness, expected
     *  produce cycle) is frozen at the value the dense kernel saw — so
     *  the late application is bit-identical, and a Writeback-only
     *  cycle costs no tick at all. */
    LOOPSIM_WAKE_STATE EventQueue events;

    /** @name The three paper feedback loops, as checked ports */
    /// @{
    FeedbackPort<BranchResolveMsg> branchPort{"core.fetch",
                                              "branch-resolution"};
    FeedbackPort<LoadResolveMsg> loadPort{"core.issue",
                                          "load-resolution"};
    FeedbackPort<OperandMissMsg> operandPort{"core.issue",
                                             "dra-operand-miss"};
    /// @}

    /** The run's event stream; nullptr unless some view is on, so an
     *  uninspected run pays one pointer test per hook. */
    std::unique_ptr<trace::RunRecorder> recorder;

    std::uint64_t fetchStampCounter = 0;
    unsigned clusterCursor = 0;
    unsigned rrFetchCursor = 0;
    Cycle renameStallUntil = 0; ///< DRA recovery borrows the RF ports
    /** Earliest future cycle any stage could act (invalidCycle: only
     *  another component's activity can change this core's state).
     *  Starts at 0 so a fresh core's first tick is immediate. */
    LOOPSIM_WAKE_STATE Cycle wakeCycle = 0;
    /** Cached earliest cycle at which the issue stage could free a
     *  Done entry or issue an InIq entry (invalidCycle: only a hook —
     *  noteIqWake()/wakeReg() — can make it act). issueStage() skips
     *  its O(IQ) scan entirely while this is in the future and
     *  recomputes it exactly whenever it does scan; computeWake()
     *  folds it in instead of rescanning the IQ. Starts at 0 so the
     *  first tick always scans. */
    /** @name issueStage() scratch (allocated once, reused per tick) */
    /// @{
    std::vector<InstRef> scratchFree;
    std::vector<InstRef> scratchWinner;
    std::vector<std::uint64_t> scratchWinnerAge;
    std::vector<std::uint8_t> scratchReady;
    /// @}

    /** A timer entry: @p ref may act at cycle @p at. Drain order
     *  among equal cycles is immaterial because drained refs are
     *  re-validated (wake) or independent (confirm frees commute). */
    struct ReadyTimer
    {
        Cycle at;
        InstRef ref;
        bool operator>(const ReadyTimer &o) const { return at > o.at; }
    };

    /** A calendar ring of pending (cycle, ref) timers: 64 one-cycle
     *  buckets over the near horizon plus a min-heap for the rare
     *  far-future arm (a load wakeup in Stall mode can sit a full
     *  memory latency out; confirm and ALU wakeups are all within a
     *  few pipeline latencies). The timers carry roughly one push and
     *  one pop per issued instruction, which made global-heap
     *  maintenance the largest single overhead of the sparse issue
     *  stage; the ring makes both ends O(1).
     *
     *  The timing contract is exact, not amortised: drain(now) hands
     *  over every entry with at <= now and never an entry with
     *  at > now. The confirm pop rules rely on the second half —
     *  an early pop would misread a still-pending free as superseded
     *  and leak the IQ slot. Buckets therefore store the armed cycle
     *  and flush re-files anything a bucket collision filed early
     *  (possible only for arms issued from inside a drain callback
     *  while a >= 64-cycle backlog flushes). */
    class TimerRing
    {
      public:
        /** Arm @p ref for cycle @p at. A past-due @p at is clamped up
         *  to the next undrained cycle: it fires at the next drain,
         *  exactly as a past-due key in a min-heap would. */
        void
        push(Cycle at, InstRef ref)
        {
            if (at < head)
                at = head;
            if (at - head >= size) {
                overflow.push({at, ref});
                return;
            }
            const unsigned b = static_cast<unsigned>(at) & mask;
            slots[b].push_back({at, ref});
            occupied |= std::uint64_t{1} << b;
        }

        /** Invoke @p f on every ref armed for a cycle <= @p now.
         *  @p f may push() (a confirm drain can re-arm itself). */
        template <typename F>
        void
        drain(Cycle now, F &&f)
        {
            while (!overflow.empty() && overflow.top().at <= now) {
                const InstRef ref = overflow.top().ref;
                overflow.pop();
                f(ref);
            }
            if (now < head)
                return;
            const Cycle from = head;
            head = now + 1;
            if (!occupied)
                return;
            if (now - from >= size - 1) {
                // Every bucket's cycle is due; flush the snapshot
                // (callback pushes re-set bits for future cycles).
                std::uint64_t due = occupied;
                occupied = 0;
                while (due) {
                    const unsigned b = static_cast<unsigned>(
                        std::countr_zero(due));
                    due &= due - 1;
                    flush(b, now, f);
                }
                return;
            }
            for (Cycle c = from; c <= now; ++c) {
                const unsigned b = static_cast<unsigned>(c) & mask;
                if (occupied & (std::uint64_t{1} << b)) {
                    occupied &= ~(std::uint64_t{1} << b);
                    flush(b, now, f);
                }
            }
        }

        /** Earliest armed cycle (>= the next undrained cycle), or
         *  invalidCycle when nothing is armed. */
        Cycle
        nextDue() const
        {
            Cycle best =
                overflow.empty() ? invalidCycle : overflow.top().at;
            if (occupied) {
                const unsigned idx = static_cast<unsigned>(head) & mask;
                const Cycle ring_due =
                    head + static_cast<unsigned>(std::countr_zero(
                               std::rotr(occupied, idx)));
                best = std::min(best, ring_due);
            }
            return best;
        }

        /** Forget everything; bucket capacity is kept. */
        void
        reset()
        {
            for (auto &s : slots)
                s.clear();
            scratch.clear();
            occupied = 0;
            head = 0;
            overflow = {};
        }

      private:
        template <typename F>
        void
        flush(unsigned b, Cycle now, F &&f)
        {
            scratch.clear();
            scratch.swap(slots[b]);
            for (const ReadyTimer &t : scratch) {
                if (t.at <= now)
                    f(t.ref);
                else
                    push(t.at, t.ref); // filed early by a collision
            }
        }

        static constexpr unsigned size = 64;
        static constexpr unsigned mask = size - 1;
        std::array<std::vector<ReadyTimer>, size> slots;
        std::vector<ReadyTimer> scratch;
        std::uint64_t occupied = 0;
        Cycle head = 0; ///< everything below has been drained
        std::priority_queue<ReadyTimer, std::vector<ReadyTimer>,
                            std::greater<ReadyTimer>>
            overflow;
    };

    /** @name Incremental ready tracking (sparse kernel only; empty
     *  and unread under the dense reference). See the arm helpers
     *  above and DESIGN.md §14. */
    /// @{
    LOOPSIM_WAKE_STATE TimerRing wakeTimer;
    LOOPSIM_WAKE_STATE TimerRing confirmTimer;
    /** A select candidate: fetchStamp plus ref. fetchStamps are
     *  unique and stable across reissue, so the stamp doubles as the
     *  dedup identity. */
    struct ReadyCand
    {
        std::uint64_t stamp;
        InstRef ref;
    };
    /** Per-cluster select candidates, sorted by fetchStamp so
     *  iteration is oldest-first (the §2 arbiter order). Flat sorted
     *  vectors, not maps: the sets are arbiter-sized (a handful of
     *  entries), evaluation compacts them in place, and the reused
     *  capacity keeps the hot path allocation-free. */
    std::vector<std::vector<ReadyCand>> clusterReady;
    /** Kill victims reverted to InIq since the last issue pass. */
    std::vector<InstRef> readyRecheck;
    /// @}

    /** Ticks whose issue stage ran the full O(IQ) reference scan
     *  (kernel scan-fraction telemetry; see Clocked::fullScanTicks). */
    std::uint64_t scanTicks = 0;
    KernelCounters counters; ///< computeWake() and issueIncremental()
    LOOPSIM_WAKE_STATE Cycle iqWakeAt = 0;
    /** Set from prepareKernel(): true under the sparse event wheel
     *  (also the construction default, so a bare core outside any
     *  Simulator gets the production code paths). The dense reference
     *  kernel clears it, disabling the issue-stage gate and the wake
     *  computation. */
    bool sparseKernel = true;
    bool tickedOnce = false; ///< span accounting starts at first tick
    Cycle lastCycle = 0;
    Cycle measureStartCycle = 0;
    std::uint64_t measureStartRetired = 0;

    /** @name Statistics
     *
     * Counted over the measured window: beginMeasurement() assigns a
     * fresh set, and `exported` points into it.
     */
    /// @{
    struct Statistics
    {
        stats::Scalar cycles;
        stats::Scalar fetchedOps;
        stats::Scalar wrongPathOps;
        stats::Scalar renamedOps;
        stats::Scalar issuedOps;
        stats::Scalar reissuedOps;
        stats::Scalar retiredTotal;
        stats::Scalar squashedOps;
        stats::Scalar branchesRetired;
        stats::Scalar branchMispredicts;
        stats::Scalar loadMissEvents;
        stats::Scalar loadKilledOps;
        stats::Scalar tlbTraps;
        stats::Scalar memOrderTrapCount;
        stats::Scalar operandMissEvents;
        stats::Scalar recoveryStallCycles;
        stats::Average iqOccupancy;
        stats::Average robOccupancy;
        stats::Scalar branchLoopOpenCycles;
        stats::Scalar loadLoopOpenCycles;
        stats::Scalar operandLoopOpenCycles;
        /** One bin per OperandSource but None. */
        stats::Vector operandSources{6};
        /** Cycles between an instruction's two source operands'
         *  availability (Figure 6). */
        stats::Distribution operandGap{0, 256, 1};
    };
    Statistics measured;
    std::vector<std::pair<const char *, const stats::Stat *>> exported;
    /// @}
};

} // namespace loopsim

#endif // LOOPSIM_CORE_CORE_HH
