/**
 * @file
 * Statistical benchmark profiles.
 *
 * The paper evaluates SPEC95 programs compiled for Alpha; neither the
 * binaries nor the authors' traces are available, so each program is
 * modelled by a profile that drives the synthetic trace generator
 * (see DESIGN.md §1). The profile controls exactly the program
 * characteristics the paper's analysis attributes results to:
 * branch frequency and predictability, memory footprint and miss
 * behaviour, dependence distance (ILP), operand fan-out and lifetime.
 */

#ifndef LOOPSIM_WORKLOAD_PROFILE_HH
#define LOOPSIM_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace loopsim
{

/**
 * Tunable statistical description of one benchmark. All *Frac fields
 * are probabilities in [0,1]; instruction-mix fractions must sum to
 * at most 1 (the remainder is IntAlu).
 */
struct BenchmarkProfile
{
    std::string name;
    bool floatingPoint = false;

    /** @name Instruction mix */
    /// @{
    double condBranchFrac = 0.12;
    double uncondBranchFrac = 0.02;
    double loadFrac = 0.25;
    double storeFrac = 0.10;
    double intMultFrac = 0.01;
    double fpAddFrac = 0.0;
    double fpMultFrac = 0.0;
    double fpDivFrac = 0.0;
    double nopFrac = 0.01;
    /** Memory barriers: rare, stall-managed loose-loop generators
     *  (the paper's §1 example of an infrequent loop). */
    double barrierFrac = 0.0;
    /// @}

    /** @name Control behaviour */
    /// @{
    /** Mispredict probability per conditional branch. */
    double mispredictRate = 0.06;
    /** BTB/target mispredict probability per unconditional branch. */
    double uncondMispredictRate = 0.01;
    /** Number of distinct static branch sites in the code loop. */
    unsigned numStaticBranches = 256;
    /** Mean probability a conditional branch is taken. */
    double takenBias = 0.6;
    /// @}

    /** @name Memory behaviour */
    /// @{
    /** Bytes of the hot data set (sized to live in the L1D). */
    std::uint64_t hotBytes = 16 * 1024;
    /** Bytes of the L2-resident set (misses L1, hits L2). */
    std::uint64_t l2Bytes = 512 * 1024;
    /** Fraction of memory accesses to the L2-resident set. */
    double l2ResidentFrac = 0.10;
    /** Fraction of memory accesses streaming far beyond the L2. */
    double farFrac = 0.01;
    /** Far-stream stride; >= page size makes every far access a dTLB
     *  miss (turb3d-style). */
    std::uint64_t farStrideBytes = 64;
    /// @}

    /** @name Dependence shape */
    /// @{
    /**
     * Weights over dependence distances (in dynamic instructions) for
     * register sources; parallel to depDistances(). Short distances
     * make narrow chains (low ILP); long distances make wide operand
     * availability gaps (Figure 6).
     */
    std::vector<double> depDistWeights =
        {20, 14, 10, 8, 8, 6, 5, 4, 3, 2, 1.5, 1, 0.5, 0.25};
    /**
     * Probability that an op's first register source is the
     * *immediately preceding* producer, forming one long serial chain
     * (apsi-style "long, narrow dependency chains", paper §3.1). At 0
     * all sources follow depDistWeights.
     */
    double serialChainFrac = 0.0;
    /** Probability a source reads a long-lived global register. */
    double longLivedSrcFrac = 0.12;
    /** Probability a source reads one of the hot high-fan-out regs. */
    double hotSrcFrac = 0.0;
    /** Number of hot high-fan-out registers. */
    unsigned hotRegCount = 4;
    /** A hot register is rewritten every this many instructions. */
    unsigned hotWritePeriod = 64;
    /** Probability an ALU/FP op has a second register source. */
    double secondSrcFrac = 0.55;
    /// @}

    /** Static code-loop length in micro-ops (shapes the PC stream). */
    unsigned codeLoopLength = 4096;

    /** Base RNG seed; the generator also folds in the thread id. */
    std::uint64_t seed = 1;

    /** Sanity-check field ranges; fatal() on nonsense. */
    void validate() const;

    /** Field by field; doubles by value, so +0.0 equals -0.0. */
    bool operator==(const BenchmarkProfile &) const = default;

    /** The distance values depDistWeights weights refer to. */
    static const std::vector<unsigned> &depDistances();
};

/**
 * Calibrated profile for one of the paper's SPEC95 benchmarks:
 * compress, gcc, go, m88ksim (integer); apsi, hydro2d, mgrid, su2cor,
 * swim, turb3d (floating point). Accepts the paper's short names too
 * ("comp", "m88", "hydro"). fatal() for unknown names.
 */
BenchmarkProfile spec95Profile(const std::string &name);

/** Names of all ten single-thread benchmarks, in the paper's order. */
const std::vector<std::string> &spec95Names();

} // namespace loopsim

#endif // LOOPSIM_WORKLOAD_PROFILE_HH
