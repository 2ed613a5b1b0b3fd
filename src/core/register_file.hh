/**
 * @file
 * Physical register file state: the free list and the scoreboard the
 * issue logic schedules against.
 *
 * Two notions of readiness are tracked per register, mirroring the
 * paper's distinction between speculative wakeup and real data:
 *
 *  - issueReadyAt: the earliest cycle a consumer may *issue*, set
 *    speculatively when the producer issues (loads assume an L1 hit).
 *    Load misses retime it.
 *  - actualReadyAt: the cycle the real value exists at the functional
 *    units (set only by a valid execution). Consumers that begin
 *    executing before this hold garbage and must reissue.
 *  - writebackAt: the cycle the value lands in the register file
 *    proper (actualReadyAt + forwarding window), which is when the
 *    DRA's RPFT bit is set.
 */

#ifndef LOOPSIM_CORE_REGISTER_FILE_HH
#define LOOPSIM_CORE_REGISTER_FILE_HH

#include <vector>

#include "base/annotations.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "core/dyn_inst.hh"

namespace loopsim
{

class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned num_regs);

    /** @name Allocation */
    /// @{
    bool hasFree() const { return !freeList.empty(); }
    std::size_t numFree() const { return freeList.size(); }
    unsigned size() const { return numRegs; }

    /** Allocate a register for @p producer; it starts not-ready. */
    PhysReg alloc(InstRef producer);
    /** Return a register to the free list (retire of the overwriter,
     *  or squash of the allocator). */
    void free(PhysReg reg);
    /** Architectural bootstrap: mark @p reg live and ready forever. */
    PhysReg allocArch();
    /// @}

    /** @name Scoreboard */
    /// @{
    /** Speculative wakeup: a consumer may issue at @p cycle. A
     *  scoreboard wakeup is wake-relevant state: callers owe a wake
     *  note — in core code, call wakeReg() instead. */
    LOOPSIM_WAKE_STATE void setIssueReady(PhysReg reg, Cycle cycle);
    /** Revoke readiness (producer killed / retimed). */
    void clearIssueReady(PhysReg reg);
    Cycle issueReadyAt(PhysReg reg) const;
    bool issueReady(PhysReg reg, Cycle now) const;

    /** The real value exists at the FUs from @p cycle on. */
    void setActualReady(PhysReg reg, Cycle cycle);
    void clearActualReady(PhysReg reg);
    Cycle actualReadyAt(PhysReg reg) const;
    /** True if a consumer starting execution at @p now reads real
     *  data (from forward path or the RF). */
    bool actualReady(PhysReg reg, Cycle now) const;

    /** The value is in the RF array itself from @p cycle on. */
    void setWriteback(PhysReg reg, Cycle cycle);
    Cycle writebackAt(PhysReg reg) const;
    bool writtenBack(PhysReg reg, Cycle now) const;

    /** The in-flight producer of @p reg, if any. */
    InstRef producer(PhysReg reg) const;

    /** Is @p reg currently allocated? */
    bool live(PhysReg reg) const;
    /// @}

    /** The owning Core's event stream; nullptr unless a view is on. */
    trace::RunRecorder *recorder = nullptr;

  private:
    void checkRange(PhysReg reg) const;
    /** Record a scoreboard transition (LOOPSIM_DEBUG=Reg). */
    void
    note(PhysReg reg, trace::RegChange change, std::uint64_t value)
    {
        if (recorder)
            recorder->record({.kind = trace::EventKind::Reg,
                              .what = static_cast<std::uint8_t>(change),
                              .id = reg, .a = value});
    }

    unsigned numRegs;
    /**
     * SoA layout: the wakeup scan in issueStage reads issueReadyCycle
     * for both sources of every IQ occupant every active cycle, and
     * nothing else. Keeping each scoreboard field in its own dense
     * array means that scan pulls 8-byte cache lines of exactly the
     * field it needs instead of dragging the whole per-register record
     * (flags, producer ref, writeback cycle) through the cache.
     */
    std::vector<Cycle> issueReadyCycles;
    std::vector<Cycle> actualReadyCycles;
    std::vector<Cycle> writebackCycles;
    std::vector<std::uint8_t> liveFlags;
    std::vector<InstRef> producers;
    std::vector<PhysReg> freeList;
};

inline bool
PhysRegFile::issueReady(PhysReg reg, Cycle now) const
{
    panic_if(reg >= numRegs, "physical register out of range");
    return issueReadyCycles[reg] <= now;
}

/**
 * Unchecked hot-path accessor: the wakeup scan reads the gate cycle
 * for every occupant source every scan, and its callers index with
 * registers that were range-checked at rename.
 */
inline Cycle
PhysRegFile::issueReadyAt(PhysReg reg) const
{
    return issueReadyCycles[reg];
}

} // namespace loopsim

#endif // LOOPSIM_CORE_REGISTER_FILE_HH
