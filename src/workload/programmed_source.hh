/**
 * @file
 * A TraceSource fed from an explicit vector of micro-ops. Useful for
 * unit tests and for users who want to drive the core with a
 * hand-constructed kernel instead of a statistical profile.
 */

#ifndef LOOPSIM_WORKLOAD_PROGRAMMED_SOURCE_HH
#define LOOPSIM_WORKLOAD_PROGRAMMED_SOURCE_HH

#include <string>
#include <utility>
#include <vector>

#include "workload/generator.hh"
#include "workload/micro_op.hh"

namespace loopsim
{

class ProgrammedTraceSource : public TraceSource
{
  public:
    explicit ProgrammedTraceSource(std::vector<MicroOp> program_ops,
                                   std::string name = "programmed")
        : ops(std::move(program_ops)), label(std::move(name))
    {
        // Sequence numbers are assigned here so callers need not
        // bother; pcs default to a linear code region when unset.
        for (std::size_t i = 0; i < this->ops.size(); ++i) {
            this->ops[i].seq = i;
            if (this->ops[i].pc == 0)
                this->ops[i].pc = 0x1000 + 4 * i;
        }
    }

    bool
    next(MicroOp &op) override
    {
        if (cursor >= ops.size())
            return false;
        op = ops[cursor++];
        return true;
    }

    std::string name() const override { return label; }

  private:
    std::vector<MicroOp> ops;
    std::string label;
    std::size_t cursor = 0;
};

/** Convenience builders for hand-written test kernels. */
namespace opbuild
{

MicroOp inline alu(ArchReg dest, ArchReg src0 = invalidArchReg,
                   ArchReg src1 = invalidArchReg)
{
    MicroOp op;
    op.opClass = OpClass::IntAlu;
    op.dest = dest;
    op.src[0] = src0;
    op.src[1] = src1;
    return op;
}

MicroOp inline fp(ArchReg dest, ArchReg src0, ArchReg src1 = invalidArchReg)
{
    MicroOp op;
    op.opClass = OpClass::FpAdd;
    op.dest = dest;
    op.src[0] = src0;
    op.src[1] = src1;
    return op;
}

MicroOp inline load(ArchReg dest, ArchReg base, Addr addr)
{
    MicroOp op;
    op.opClass = OpClass::Load;
    op.dest = dest;
    op.src[0] = base;
    op.effAddr = addr;
    return op;
}

MicroOp inline storeOp(ArchReg base, ArchReg data, Addr addr)
{
    MicroOp op;
    op.opClass = OpClass::Store;
    op.src[0] = base;
    op.src[1] = data;
    op.effAddr = addr;
    return op;
}

MicroOp inline branch(ArchReg cond, bool taken, bool mispredict = false)
{
    MicroOp op;
    op.opClass = OpClass::BranchCond;
    op.src[0] = cond;
    op.taken = taken;
    op.forceMispredict = mispredict;
    op.target = 0x2000;
    return op;
}

MicroOp inline nop()
{
    MicroOp op;
    op.opClass = OpClass::Nop;
    return op;
}

} // namespace opbuild

} // namespace loopsim

#endif // LOOPSIM_WORKLOAD_PROGRAMMED_SOURCE_HH
