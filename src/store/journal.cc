#include "store/journal.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "base/logging.hh"
#include "base/options.hh"
#include "harness/experiment.hh"
#include "store/codec.hh"
#include "store/record.hh"

namespace fs = std::filesystem;

namespace loopsim::store
{

namespace
{

struct ParsedHeader
{
    std::uint32_t schema = 0;
    Fingerprint planFp;
    std::uint64_t planCells = 0;
};

bool
parseHeader(std::string_view bytes, ParsedHeader &hdr)
{
    Decoder in(bytes);
    std::uint32_t magic = 0;
    return in.u32(magic) && magic == kJournalMagic &&
           in.u32(hdr.schema) && in.u64(hdr.planFp.hi) &&
           in.u64(hdr.planFp.lo) && in.u64(hdr.planCells);
}

} // anonymous namespace

std::size_t
replayJournal(std::string_view bytes,
              std::map<Fingerprint, RunResult> &replay)
{
    if (bytes.size() < kJournalHeaderBytes)
        return 0;
    // Each entry is a length-prefixed record, decoded in place: a
    // view, never a copy.
    Decoder in(bytes.substr(kJournalHeaderBytes));
    std::size_t valid = 0;
    std::string_view record;
    while (in.view(record)) {
        Fingerprint fp;
        std::uint32_t schema = 0;
        RunResult result;
        if (!peekRecord(record, fp, schema) ||
            !decodeRecord(record, fp, result)) {
            break;
        }
        replay.insert_or_assign(fp, std::move(result));
        valid = in.offset();
    }
    return kJournalHeaderBytes + valid;
}

CampaignJournal::CampaignJournal(const std::string &dir,
                                 const Fingerprint &plan_fp,
                                 std::uint64_t plan_cells)
{
    fatal_if(dir.empty(), "campaign journal needs a directory path");
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatal_if(ec && !fs::is_directory(dir),
             "cannot create journal directory ", dir, ": ", ec.message());
    file = (fs::path(dir) / (plan_fp.hex() + ".lsj")).string();

    fd = ::open(file.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("cannot open journal ", file, ": ", std::strerror(errno),
             " (campaign will run un-resumable)");
        return;
    }
    // One writer per journal: a second campaign on the same plan would
    // truncate to the prefix it read and append at its own offset,
    // overwriting this one's entries. The lock lives as long as the
    // descriptor. A forked isolated worker shares it, so a worker that
    // outlives its campaign holds the lock until its one cell ends,
    // and a campaign started meanwhile takes this same fallback.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        warn("cannot lock journal ", file, ": ",
             errno == EWOULDBLOCK ? "another campaign is using it"
                                  : std::strerror(errno),
             " (campaign will run un-resumable)");
        ::close(fd);
        fd = -1;
        return;
    }

    // Replay whatever a previous campaign left, then truncate the torn
    // tail so fresh appends never land after garbled framing.
    std::size_t keep = 0;
    std::string bytes;
    if (readFile(file, bytes)) {
        ParsedHeader hdr;
        if (parseHeader(bytes, hdr) && hdr.schema == kSchemaVersion &&
            hdr.planFp == plan_fp && hdr.planCells == plan_cells) {
            keep = replayJournal(bytes, replay);
        } else if (!bytes.empty()) {
            warn("journal ", file,
                 " does not match this plan; starting it over");
        }
    }

    if (::ftruncate(fd, static_cast<off_t>(keep)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        warn("cannot position journal ", file, ": ",
             std::strerror(errno), " (campaign will run un-resumable)");
        ::close(fd);
        fd = -1;
        replay.clear();
        return;
    }
    if (keep == 0) {
        std::string hdr;
        hdr.reserve(kJournalHeaderBytes);
        Encoder out(hdr);
        out.u32(kJournalMagic);
        out.u32(kSchemaVersion);
        out.u64(plan_fp.hi);
        out.u64(plan_fp.lo);
        out.u64(plan_cells);
        if (!writeAll(fd, hdr.data(), hdr.size())) {
            warn("cannot write journal header ", file, ": ",
                 std::strerror(errno));
            ::close(fd);
            fd = -1;
            return;
        }
        ::fsync(fd);
    }
}

CampaignJournal::~CampaignJournal()
{
    if (fd >= 0)
        ::close(fd);
}

bool
CampaignJournal::take(const Fingerprint &fp, RunResult &out)
{
    auto it = replay.find(fp);
    if (it == replay.end())
        return false;
    out = std::move(it->second);
    replay.erase(it);
    return true;
}

void
CampaignJournal::append(const Fingerprint &fp, const RunResult &result)
{
    if (fd < 0)
        return;
    // The record codec never serializes loopEvents/tickProfile, so the
    // journal naturally stores only replayable measurement state.
    const std::string record = encodeRecord(fp, result);
    std::string entry;
    entry.reserve(4 + record.size());
    Encoder(entry).str(record);

    std::lock_guard<std::mutex> lock(mutex);
    if (!writeAll(fd, entry.data(), entry.size())) {
        if (!writeFailed) {
            warn("journal append to ", file, " failed: ",
                 std::strerror(errno),
                 " (resume coverage stops here; results unaffected)");
        }
        writeFailed = true;
        return;
    }
    // fsync per cell: a cell is minutes of simulation, the sync is
    // microseconds, and it is what makes a SIGKILL lose at most the
    // entry being appended.
    ::fsync(fd);
}

void
setJournalPath(const std::string &dir)
{
    processOptions().journalPath = dir;
}

std::string
journalPath()
{
    return processOptions().journalPath;
}

bool
journalConfigured()
{
    return !journalPath().empty();
}

std::vector<JournalInfo>
scanJournals(const std::string &dir)
{
    std::vector<JournalInfo> out;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return out;

    for (fs::directory_iterator
             it(dir, fs::directory_options::skip_permission_denied, ec),
         end;
         it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec) || it->path().extension() != ".lsj")
            continue;

        JournalInfo info;
        info.path = it->path().string();
        info.bytes = static_cast<std::uint64_t>(it->file_size(ec));
        auto mtime = fs::last_write_time(it->path(), ec);
        if (!ec) {
            info.mtimeSeconds =
                std::chrono::duration_cast<std::chrono::seconds>(
                    mtime.time_since_epoch())
                    .count();
        }

        bool named_ok =
            Fingerprint::parse(it->path().stem().string(), info.planFp);

        std::string bytes;
        if (readFile(it->path().string(), bytes)) {
            ParsedHeader hdr;
            if (parseHeader(bytes, hdr)) {
                info.schema = hdr.schema;
                info.planCells = hdr.planCells;
                info.headerOk = named_ok &&
                                hdr.schema == kSchemaVersion &&
                                hdr.planFp == info.planFp;
            }
            if (info.headerOk) {
                std::map<Fingerprint, RunResult> replay;
                info.validBytes = replayJournal(bytes, replay);
                info.entries = replay.size();
                for (const auto &[fp, result] : replay) {
                    if (result.failed)
                        ++info.poison;
                }
            }
        }
        out.push_back(std::move(info));
    }

    std::sort(out.begin(), out.end(),
              [](const JournalInfo &a, const JournalInfo &b) {
                  return a.planFp < b.planFp;
              });
    return out;
}

std::size_t
pruneJournals(const std::string &dir)
{
    std::size_t removed = 0;
    std::error_code ec;
    for (const JournalInfo &info : scanJournals(dir)) {
        if (info.headerOk && !info.complete())
            continue; // resumable in-progress journal: keep
        if (fs::remove(info.path, ec) && !ec)
            ++removed;
    }
    return removed;
}

} // namespace loopsim::store
