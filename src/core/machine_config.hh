/**
 * @file
 * Resolved microarchitectural parameters of one simulated core.
 *
 * The defaults reproduce the paper's base machine (§2): 8-wide, 128
 * entry IQ, 256 in flight, 8 clusters, DEC-IQ = IQ-EX = 5 cycles,
 * 3-cycle register file, 9-cycle forwarding buffer, 3-cycle feedback.
 * The static members (physical registers, front-end latency, branch
 * feedback, IQ clear delay, miss notice) are constants: no figure
 * varies them, so no config key sets them.
 */

#ifndef LOOPSIM_CORE_MACHINE_CONFIG_HH
#define LOOPSIM_CORE_MACHINE_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace loopsim
{

class Config;

/** How the pipeline recovers from a load-hit mis-speculation (§2.2.2). */
enum class LoadRecovery : std::uint8_t
{
    Reissue, ///< issue-stage recovery: reissue the dependency tree (base)
    Refetch, ///< front-of-pipe recovery: squash and refetch
    Stall,   ///< no speculation: dependents wait for hit/miss resolution
};

/** SMT fetch arbitration. */
enum class FetchPolicy : std::uint8_t { ICount, RoundRobin };

struct MachineConfig
{
    /** @name Widths and capacities */
    /// @{
    unsigned width = 8;
    unsigned iqEntries = 128;
    unsigned robEntries = 256; ///< max instructions in flight
    static constexpr unsigned numPhysRegs = 512;
    unsigned numClusters = 8;
    /// @}

    /** @name Pipeline latencies (cycles) */
    /// @{
    static constexpr unsigned frontLatency = 4; ///< fetch to rename point
    unsigned decIqLatency = 5;   ///< rename point to IQ insertion (DEC-IQ)
    unsigned iqExLatency = 5;    ///< issue to execute (IQ-EX)
    unsigned regfileLatency = 3; ///< register file access time
    unsigned loadFeedback = 3;   ///< execute back to IQ (load loop)
    /** Execute back to fetch (branch loop). */
    static constexpr unsigned branchFeedback = 2;
    /** Extra cycles to clear a freed entry. */
    static constexpr unsigned iqClearDelay = 1;
    unsigned fwdBufferDepth = 9; ///< forwarding buffer window
    unsigned tlbWalkPenalty = 30; ///< dTLB fill latency on a miss
    /**
     * How many cycles before the data return of a *missed* load the IQ
     * learns the arrival time. Hit timing is fully pipelined and known
     * at issue, but a miss's fill is announced only this far ahead, so
     * each miss costs consumers an extra (IQ-EX - notice) cycles — one
     * of the ways a long IQ-EX path hurts (§3.2).
     */
    static constexpr unsigned missNotice = 1;
    /// @}

    /** @name Speculation and recovery */
    /// @{
    LoadRecovery loadRecovery = LoadRecovery::Reissue;
    /** Model load/store reorder traps (the paper's memory trap loop)
     *  with a 21264-style wait-table predictor. */
    bool memOrderTraps = true;
    unsigned memDepEntries = 2048;  ///< wait-table size
    std::uint64_t memDepClear = 32768; ///< clear interval (0 = never)
    /** 21264-style: kill everything issued in the shadow, not just the
     *  dependency tree. */
    bool killAllInShadow = false;
    /** Fetch synthetic wrong-path work after a misprediction. */
    bool wrongPathFetch = true;
    /// @}

    /** @name DRA (the paper's contribution, §4-§5) */
    /// @{
    bool dra = false;
    unsigned crcEntries = 16;        ///< per cluster
    std::string crcRepl = "fifo";
    unsigned insertionTableBits = 2; ///< consumer-count saturation width
    /** CRC entry timeout in cycles; 0 keeps the paper's explicit
     *  invalidate-on-reallocation scheme only (§5.5). */
    std::uint64_t crcTimeout = 0;
    /// @}

    FetchPolicy fetchPolicy = FetchPolicy::ICount;

    /** @name Front-end buffer capacities (derived) */
    /// @{
    /** A thread's fetch buffer: fetch to the rename point plus two
     *  cycles of skid, at full width. */
    std::size_t
    fetchBufferCapacity() const
    {
        return std::size_t{width} * (frontLatency + 2);
    }
    /** The shared DEC-IQ pipe: rename point to IQ insertion at full
     *  width, skid-buffered so rename stalls when insertion backs up. */
    std::size_t
    renamePipeCapacity() const
    {
        return std::size_t{width} * (decIqLatency - 1);
    }
    /// @}

    /** Populate from "core.*" keys of @p cfg; fatal() on bad values. */
    static MachineConfig fromConfig(const Config &cfg);

    /** Apply the DRA pipeline transformation of §6: the RF access moves
     *  out of IQ-EX (leaving 1 cycle for fwd/CRC lookup + 2 transport)
     *  and overlaps DEC-IQ, which grows to cover rename + RF access. */
    void applyDra();

    /** Sanity checks; fatal() on inconsistent settings. */
    void validate() const;

    /** Human-readable one-per-line dump (bench/table_config). */
    void print(std::ostream &os) const;

    /** Paper-style label, e.g.\ "5_5" = DEC-IQ 5, IQ-EX 5. */
    std::string pipeLabel() const;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_MACHINE_CONFIG_HH
