/**
 * @file
 * Crash-consistent, append-only campaign journals.
 *
 * The result store (result_store.hh) remembers *healthy* results
 * across binaries and machines; the journal remembers *how far one
 * specific campaign got*, verdicts included. One journal file covers
 * one campaign plan, named by the plan fingerprint (a hash over every
 * cell's run fingerprint in plan order), so a resumed campaign can
 * only ever replay a journal that describes byte-for-byte the same
 * plan under the same overlays — change one knob and the journal
 * silently stops applying.
 *
 * Layout (`<dir>/<plan-fp-hex>.lsj`, integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic "LSJ1"
 *   4       4     record schema version (kSchemaVersion)
 *   8       8     plan fingerprint hi
 *   16      8     plan fingerprint lo
 *   24      8     plan size in cells
 *   32      ...   entries: [u32 length][store record] ...
 *
 * Each entry is one finished cell, serialized with the store's record
 * codec under the *cell's* fingerprint — self-validating (magic,
 * schema, fingerprint, CRC), so replay trusts nothing it cannot
 * verify. Unlike the store, the journal does record failed cells:
 * a fail/crash/timeout verdict is campaign progress (re-running a
 * known-poison cell on resume would re-crash a worker per attempt),
 * while the store keeps failures out, since a crash or timeout verdict
 * can have a host cause that a later campaign should not inherit.
 *
 * Crash consistency is the whole point: appends are length-prefixed
 * and fsync()ed, and a write torn by a crash or SIGKILL leaves a
 * recognisably short or CRC-broken tail. Replay accepts the longest
 * valid prefix and the writer truncates the torn tail before
 * appending again, so an interrupted campaign loses at most the cell
 * that was mid-append — never the file.
 *
 * Each journal has one writer: a handle holds an exclusive flock(2)
 * on its file for its lifetime, and a second handle on the same plan
 * (another process, or another open in this one) comes up !ok() —
 * its campaign still runs, only un-resumable.
 */

#ifndef LOOPSIM_STORE_JOURNAL_HH
#define LOOPSIM_STORE_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/fingerprint.hh"

namespace loopsim
{

struct RunResult;

namespace store
{

constexpr std::uint32_t kJournalMagic = 0x314a534cu; // "LSJ1"
constexpr std::size_t kJournalHeaderBytes = 32;

/** One plan's append-only progress file. Thread-safe appends. */
class CampaignJournal
{
  public:
    /**
     * Open (or create) the journal for @p plan_fp under @p dir. An
     * existing file is replayed: its longest valid entry prefix fills
     * replayed() and any torn tail is truncated away; a file whose
     * header disagrees (schema bump, foreign plan) is started over.
     * fatal() when the directory cannot be created; an unwritable
     * file, or one another handle holds locked, degrades to
     * ok() == false with a warning (a campaign without a journal is
     * merely un-resumable, not broken).
     */
    CampaignJournal(const std::string &dir, const Fingerprint &plan_fp,
                    std::uint64_t plan_cells);
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** False when the journal file could not be opened and locked. */
    bool ok() const { return fd >= 0; }

    /** Cells already completed by a previous (interrupted) campaign,
     *  verdicts included. Latest entry wins on duplicates. */
    const std::map<Fingerprint, RunResult> &replayed() const
    {
        return replay;
    }

    /** Move the replayed result for @p fp into @p out and drop it from
     *  replayed(); false (and @p out untouched) when @p fp was not
     *  replayed. */
    bool take(const Fingerprint &fp, RunResult &out);

    /**
     * Append one finished cell and fsync. Thread-safe; silently drops
     * the entry (with one warning) when the write fails — journal
     * damage may cost resume coverage, never campaign results.
     */
    void append(const Fingerprint &fp, const RunResult &result);

    const std::string &path() const { return file; }

  private:
    std::string file;
    int fd = -1;
    std::mutex mutex;
    std::map<Fingerprint, RunResult> replay;
    bool writeFailed = false;
};

/**
 * Decode the entries of journal image @p bytes (the whole file, header
 * included; the caller checks the header) into @p replay, latest
 * duplicate winning. Returns the byte length of the valid prefix,
 * header included, or 0 for an image shorter than a header; anything
 * past it is a torn tail. Never trusts a length it cannot see: a
 * damaged entry ends the prefix.
 */
std::size_t replayJournal(std::string_view bytes,
                          std::map<Fingerprint, RunResult> &replay);

/** @name Process-wide journal configuration
 * The directory is RunOptions::journalPath (base/options.hh). */
/// @{
void setJournalPath(const std::string &dir); ///< "" disables
std::string journalPath();
bool journalConfigured();
/// @}

/** @name Maintenance (the loopsim-store CLI and tests) */
/// @{

/** One journal file as seen by a maintenance scan. */
struct JournalInfo
{
    std::string path;
    /** Plan fingerprint from the file name. */
    Fingerprint planFp;
    std::uint32_t schema = 0;
    std::uint64_t planCells = 0;
    /** Distinct cells in the valid entry prefix. */
    std::size_t entries = 0;
    /** Failed (fail/crash/timeout) cells among them. */
    std::size_t poison = 0;
    std::uint64_t bytes = 0;
    /** Bytes of header + valid entry prefix. */
    std::uint64_t validBytes = 0;
    /** Header parsed, matches the file name and current schema. */
    bool headerOk = false;
    /** Modification time (filesystem clock) for pruning order. */
    std::int64_t mtimeSeconds = 0;

    bool complete() const { return headerOk && entries >= planCells; }
    /** Trailing bytes that replay could not validate. A torn tail is
     *  expected after a crash; `journal verify` still reports it so
     *  CI can distinguish a clean stop from an interrupted one. */
    bool truncatedTail() const { return bytes != validBytes; }
};

/** Scan every *.lsj file under @p dir, sorted by plan fingerprint. */
std::vector<JournalInfo> scanJournals(const std::string &dir);

/** Remove completed and unreadable journals, keeping resumable
 *  in-progress ones. Returns the number of files removed. */
std::size_t pruneJournals(const std::string &dir);
/// @}

} // namespace store
} // namespace loopsim

#endif // LOOPSIM_STORE_JOURNAL_HH
