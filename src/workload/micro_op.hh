/**
 * @file
 * The dynamic-instruction record exchanged between a trace source and
 * the core model.
 *
 * The simulator is timing-only: micro-ops carry dependence, control and
 * memory-behaviour annotations but no data values. Register identifiers
 * are architectural here; the core renames them to physical registers.
 */

#ifndef LOOPSIM_WORKLOAD_MICRO_OP_HH
#define LOOPSIM_WORKLOAD_MICRO_OP_HH

#include <array>
#include <string>

#include "base/types.hh"

namespace loopsim
{

/** Functional classes; each maps to an execution latency and FU type. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer operation
    IntMult,    ///< integer multiply
    FpAdd,      ///< floating-point add/sub/convert
    FpMult,     ///< floating-point multiply
    FpDiv,      ///< floating-point divide (long, unpipelined-ish)
    Load,       ///< memory read
    Store,      ///< memory write
    BranchCond, ///< conditional branch
    BranchUncond, ///< unconditional branch / jump / call / return
    MemBarrier, ///< memory barrier: stalls the mapper (paper §1)
    Nop,        ///< no-op (consumes a slot only)
    NumOpClasses
};

/** Number of distinct op classes (for stat vectors). */
constexpr std::size_t numOpClasses =
    static_cast<std::size_t>(OpClass::NumOpClasses);

/** Printable name of an op class. */
const char *opClassName(OpClass cls);

/** Default execution latency (cycles in the functional unit). */
unsigned opClassLatency(OpClass cls);

/**
 * One dynamic instruction. At most two source operands and one
 * destination, per the paper's operand accounting.
 */
struct MicroOp
{
    /** Program-order sequence number within the thread's trace. */
    SeqNum seq = invalidSeqNum;
    ThreadId tid = 0;
    Addr pc = 0;

    OpClass opClass = OpClass::Nop;

    /** Architectural sources; invalidArchReg when absent. */
    std::array<ArchReg, 2> src{invalidArchReg, invalidArchReg};
    /** Architectural destination; invalidArchReg when absent. */
    ArchReg dest = invalidArchReg;

    /** Branch annotations (valid when isBranch()). */
    bool taken = false;
    Addr target = 0;
    /**
     * The calibrated prediction outcome: this branch mispredicts iff
     * the flag is set (direction for conditional branches, target for
     * unconditional ones). Fetch takes it as the prediction.
     */
    bool forceMispredict = false;

    /** Memory annotations (valid when isLoad()/isStore()). */
    Addr effAddr = 0;

    /** True for synthetic wrong-path filler (never retires). */
    bool wrongPath = false;

    bool isLoad() const { return opClass == OpClass::Load; }
    bool isStore() const { return opClass == OpClass::Store; }
    bool
    isBranch() const
    {
        return opClass == OpClass::BranchCond ||
               opClass == OpClass::BranchUncond;
    }
    bool isCondBranch() const { return opClass == OpClass::BranchCond; }
    bool isBarrier() const { return opClass == OpClass::MemBarrier; }

    unsigned
    numSrcs() const
    {
        return (src[0] != invalidArchReg ? 1u : 0u) +
               (src[1] != invalidArchReg ? 1u : 0u);
    }
    bool hasDest() const { return dest != invalidArchReg; }

    /** Execution latency for this op (FU occupancy, excl. memory). */
    unsigned execLatency() const { return opClassLatency(opClass); }

    /** One-line human-readable rendering for debug traces. */
    std::string toString() const;
};

} // namespace loopsim

#endif // LOOPSIM_WORKLOAD_MICRO_OP_HH
