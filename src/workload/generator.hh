/**
 * @file
 * Trace sources: the interface the core fetches micro-ops from, and the
 * synthetic generator that realises a BenchmarkProfile as a concrete,
 * reproducible dynamic instruction stream.
 */

#ifndef LOOPSIM_WORKLOAD_GENERATOR_HH
#define LOOPSIM_WORKLOAD_GENERATOR_HH

#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "workload/micro_op.hh"
#include "workload/profile.hh"

namespace loopsim
{

/**
 * Producer of one thread's dynamic instruction stream. The correct-path
 * stream returned by next() is a pure function of the source's
 * constructor arguments, and does not depend on how many wrong-path ops
 * the core requests (wrong-path generation draws from separate state).
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next correct-path op; false when exhausted. */
    virtual bool next(MicroOp &op) = 0;

    /**
     * Produce a synthetic wrong-path op to occupy the machine after a
     * misprediction. @p resume_seq is the sequence number of the first
     * correct-path op after the branch (used to key deterministic
     * wrong-path state). The default produces a plain ALU mix.
     */
    virtual void nextWrongPath(MicroOp &op, SeqNum resume_seq);

    virtual std::string name() const = 0;
};

/**
 * Architectural register-space layout used by the generator. 64
 * architectural registers per thread: a general pool that producers
 * cycle through, a handful of hot high-fan-out registers, and
 * long-lived globals (stack/global pointer analogues) that become
 * "completed operands" in the DRA's classification.
 */
struct RegLayout
{
    static constexpr ArchReg numArchRegs = 64;
    static constexpr ArchReg generalCount = 52;
    static constexpr ArchReg hotBase = 52;     ///< up to 8 hot regs
    static constexpr ArchReg hotMax = 8;
    static constexpr ArchReg globalBase = 60;  ///< 4 global regs
    static constexpr ArchReg globalCount = 4;
};

/**
 * Synthetic trace generator driven by a BenchmarkProfile.
 *
 * Determinism contract: the op-class of each static code position is a
 * pure function of (profile seed, pc index), so the synthetic "binary"
 * is stable; dynamic choices (branch direction, addresses, dependence
 * distances) come from a per-thread PCG stream.
 */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    /**
     * @param profile  validated workload description
     * @param tid      hardware thread the ops are stamped with
     * @param num_ops  length of the correct-path stream
     */
    SyntheticTraceGenerator(BenchmarkProfile profile, ThreadId tid,
                            std::uint64_t num_ops);

    bool next(MicroOp &op) override;
    void nextWrongPath(MicroOp &op, SeqNum resume_seq) override;
    std::string name() const override { return prof.name; }

  private:
    /** Op class at static code position @p pc_index (stable). */
    OpClass classAt(std::uint64_t pc_index) const;
    /** Taken-bias of static branch site @p site. */
    double siteBias(std::uint64_t site) const;
    /** Pick a source register for a correct-path op. */
    ArchReg pickSource();
    /** Pick the first source, honouring serialChainFrac. */
    ArchReg pickFirstSource();
    /** Pick a destination register for a correct-path op. */
    ArchReg pickDest();
    /** Generate a data address per the profile's pattern mix. */
    Addr pickDataAddr();
    /** Fill sources/destination/memory fields of a correct-path op. */
    void fillOperands(MicroOp &op);
    /** Record a destination in the recent-producer ring. */
    void recordDest(ArchReg reg);
    /** The k-th most recent producer, or invalidArchReg. */
    ArchReg recentProducer(std::size_t k) const;

    BenchmarkProfile prof;
    ThreadId tid;
    std::uint64_t numOps;

    Pcg32 rng;
    std::uint64_t count = 0;
    std::uint64_t pcIndex = 0;
    std::uint64_t destCursor = 0;
    std::uint64_t hotCursor = 0;
    std::uint64_t globalCursor = 0;
    bool hotWritePending = false;
    bool globalWritePending = false;
    Addr farPtr = 0;
    /** Ring of recent destination registers. */
    std::vector<ArchReg> recentRing;
    std::size_t recentHead = 0;
    std::size_t recentCount = 0;

    /** Wrong-path side state (never touches the main stream). */
    Pcg32 wpRng;
    SeqNum wpKey = invalidSeqNum;
    std::uint64_t wpDestCursor = 0;

    DiscreteDistribution depDist;
    DiscreteDistribution classDist;

    Addr codeBase;
    Addr hotBase;
    Addr l2Base;
    Addr farBase;
};

} // namespace loopsim

#endif // LOOPSIM_WORKLOAD_GENERATOR_HH
