/**
 * @file
 * The Distributed Register Algorithm, assembled (paper §4, §5 and
 * Figure 7): the RPFT, one insertion table and one CRC per functional
 * unit cluster, plus the event hooks the pipeline drives them with.
 *
 * Operand delivery under the DRA (§5): a source is (1) pre-read from
 * the RF when its RPFT bit is set at rename; else (2) read from the
 * forwarding buffer at execute; else (3) read from the slotted
 * cluster's CRC; else (4) it *misses* — the operand-resolution-loop
 * mis-speculation — and is recovered from the RF into the IQ payload
 * while the instruction and its issued dependents reissue.
 *
 * The renamer's invalidation broadcast and the writeback's insertion
 * check reach every cluster in hardware. The model keeps, per
 * register, a mask of the clusters whose CRC may hold it (set by
 * writeback's insert) and one of the clusters whose insertion table
 * may count it (set by renameSource), and visits only those. Each
 * mask is a superset of the clusters that hold or count the register,
 * and visiting a cluster that holds nothing is a no-op, so the
 * structures and every counter end up as a visit to every cluster
 * would leave them.
 */

#ifndef LOOPSIM_DRA_DRA_UNIT_HH
#define LOOPSIM_DRA_DRA_UNIT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "dra/crc.hh"
#include "dra/insertion_table.hh"
#include "dra/rpft.hh"

namespace loopsim
{

class DraUnit
{
  public:
    /**
     * @param num_phys_regs size of the RPFT / insertion tables
     * @param num_clusters  functional unit clusters (one CRC each)
     * @param crc_entries   entries per CRC
     * @param crc_repl      CRC replacement policy
     * @param table_bits    insertion-table counter width
     */
    DraUnit(unsigned num_phys_regs, unsigned num_clusters,
            unsigned crc_entries, CrcRepl crc_repl, unsigned table_bits,
            Cycle crc_timeout = 0);

    /**
     * Rename-time handling of one source routed to @p cluster.
     * @return true when the RPFT bit is set and the operand will be
     *         pre-read into the payload (completed operand); false
     *         when the source was registered in the insertion table.
     */
    bool renameSource(PhysReg reg, ClusterId cluster);

    /** Rename-time handling of a (re)allocated destination (§5.5). */
    void renameDest(PhysReg reg);

    /** A consumer in @p cluster got @p reg from the forwarding buffer. */
    void forwardHit(PhysReg reg, ClusterId cluster);

    /** CRC probe for a consumer executing in @p cluster at @p now. */
    bool lookupCached(PhysReg reg, ClusterId cluster, Cycle now = 0);

    /**
     * The value of @p reg left the forwarding buffer and was written to
     * the RF: set its RPFT bit and insert it into every CRC whose
     * insertion table still counts outstanding consumers.
     */
    void writeback(PhysReg reg, Cycle now = 0);

    /** A physical register returned to the free list. */
    void regFreed(PhysReg reg);

    const Rpft &rpft() const { return filter; }
    const ClusterRegisterCache &crc(ClusterId cluster) const;
    const InsertionTable &insertionTable(ClusterId cluster) const;

    /** @name Aggregate statistics */
    /// @{
    std::uint64_t preReads() const { return preReadCount; }
    std::uint64_t crcInsertions() const;
    std::uint64_t crcEvictions() const;
    std::uint64_t saturationDrops() const;
    /// @}

  private:
    /** @p reg's cluster mask in @p masks (crcMask or tableMask). */
    std::uint64_t *
    maskOf(std::vector<std::uint64_t> &masks, PhysReg reg)
    {
        return &masks[std::size_t{reg} * maskWords];
    }

    Rpft filter;
    std::vector<InsertionTable> tables;
    std::vector<ClusterRegisterCache> caches;
    /** 64-bit words per register in each cluster mask. */
    std::size_t maskWords;
    /** Per register: clusters whose CRC may hold it. */
    std::vector<std::uint64_t> crcMask;
    /** Per register: clusters whose insertion table may count it. */
    std::vector<std::uint64_t> tableMask;
    std::uint64_t preReadCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_DRA_DRA_UNIT_HH
