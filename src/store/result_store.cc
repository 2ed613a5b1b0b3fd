#include "store/result_store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <system_error>

#include "base/annotations.hh"
#include "base/logging.hh"
#include "base/options.hh"
#include "store/record.hh"

namespace fs = std::filesystem;

namespace loopsim::store
{

namespace
{

/** File-scope unique suffix counter for temp names. */
std::atomic<std::uint64_t> tempCounter{0};

/**
 * Advisory cross-process lock on `<root>/.lock`, flock(2)-based.
 * Writers take it shared — any number of campaign processes insert
 * concurrently, each write already atomic via temp + rename.
 * gcStore() takes it exclusive, because eviction removes *emptied
 * fan-out directories*: without the lock a gc running beside a live
 * campaign could remove a directory between a writer's
 * create_directories() and its rename(), tearing the insert.
 * A root where the lock file cannot be opened degrades to unlocked
 * (held() == false) — the store stays usable, only the gc-vs-writer
 * guarantee is lost.
 */
class StoreLock
{
  public:
    StoreLock(const std::string &root, bool exclusive)
    {
        const std::string path =
            (fs::path(root) / ".lock").string();
        fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd < 0)
            return;
        int rc;
        do {
            rc = ::flock(fd, exclusive ? LOCK_EX : LOCK_SH);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~StoreLock()
    {
        if (fd >= 0) {
            ::flock(fd, LOCK_UN);
            ::close(fd);
        }
    }

    StoreLock(const StoreLock &) = delete;
    StoreLock &operator=(const StoreLock &) = delete;

    bool held() const { return fd >= 0; }

  private:
    int fd = -1;
};

std::mutex processMutex;
LOOPSIM_CAMPAIGN_GUARDED("processMutex")
std::unique_ptr<ResultStore> openedStore;
LOOPSIM_CAMPAIGN_GUARDED("processMutex") std::string openedPath;

/** mtime in whole seconds of the filesystem clock epoch — only ever
 *  compared against other mtimes, never against simulated time. */
std::int64_t
mtimeSeconds(const fs::path &path, std::error_code &ec)
{
    auto t = fs::last_write_time(path, ec);
    if (ec)
        return 0;
    return std::chrono::duration_cast<std::chrono::seconds>(
               t.time_since_epoch())
        .count();
}

} // anonymous namespace

void
StoreStats::accumulate(const StoreStats &other)
{
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    crcRejects += other.crcRejects;
    bytesRead += other.bytesRead;
    bytesWritten += other.bytesWritten;
}

ResultStore::ResultStore(std::string directory) : root(std::move(directory))
{
    fatal_if(root.empty(), "result store needs a directory path");
    std::error_code ec;
    fs::create_directories(root, ec);
    fatal_if(ec && !fs::is_directory(root),
             "cannot create result store directory ", root, ": ",
             ec.message());
}

std::string
ResultStore::recordPath(const Fingerprint &fp) const
{
    // <root>/ab/cdef...0123.lsr, spelled exactly as fs::path's
    // operator/ would join it, without building a path per lookup.
    const std::string hex = fp.hex();
    std::string path;
    path.reserve(root.size() + hex.size() + 6);
    path += root;
    if (path.back() != '/')
        path += '/';
    path.append(hex, 0, 2);
    path += '/';
    path.append(hex, 2);
    path += ".lsr";
    return path;
}

std::optional<RunResult>
ResultStore::lookup(const Fingerprint &fp)
{
    std::string bytes;
    if (!readFile(recordPath(fp), bytes)) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.misses;
        return std::nullopt;
    }

    std::optional<RunResult> result(std::in_place);
    if (!decodeRecord(bytes, fp, *result)) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.misses;
        ++counters.crcRejects;
        counters.bytesRead += bytes.size();
        return std::nullopt;
    }

    std::lock_guard<std::mutex> lock(mutex);
    ++counters.hits;
    counters.bytesRead += bytes.size();
    return result;
}

bool
ResultStore::insert(const Fingerprint &fp, const RunResult &result)
{
    // encodeRecord never writes loopEvents or tickProfile, so there is
    // nothing to strip first.
    const std::string record = encodeRecord(fp, result);
    const fs::path path = recordPath(fp);

    // Shared writer lock: holds off a concurrent gcStore() (exclusive)
    // whose empty-directory sweep could otherwise remove the fan-out
    // directory between create_directories() and rename().
    StoreLock write_lock(root, /*exclusive=*/false);

    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec && !fs::is_directory(path.parent_path()))
        return false;

    // Unique temp name in the same directory, so the final rename is
    // an atomic same-filesystem move and readers never see a partial
    // record. Two processes racing on the same fingerprint both write
    // identical bytes; last rename wins harmlessly.
    const std::string tmp_name =
        path.filename().string() + ".tmp-" + std::to_string(::getpid()) +
        "-" +
        std::to_string(
            tempCounter.fetch_add(1, std::memory_order_relaxed));
    const fs::path tmp = path.parent_path() / tmp_name;

    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return false;
        }
        out.write(record.data(),
                  static_cast<std::streamsize>(record.size()));
        out.flush();
        if (!out) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }

    fs::rename(tmp, path, ec);
    if (ec) {
        // Belt and braces for an unlockable root: if something swept
        // the fan-out directory away, re-create it and retry once.
        std::error_code ec2;
        fs::create_directories(path.parent_path(), ec2);
        fs::rename(tmp, path, ec2);
        if (ec2) {
            fs::remove(tmp, ec);
            return false;
        }
    }

    std::lock_guard<std::mutex> lock(mutex);
    ++counters.inserts;
    counters.bytesWritten += record.size();
    return true;
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

std::optional<RunResult>
ResultMemo::lookup(const Fingerprint &fp)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(fp);
    if (it == entries.end())
        return std::nullopt;
    return it->second;
}

void
ResultMemo::insert(const Fingerprint &fp, RunResult result)
{
    // Strip outside the lock, on the caller's copy (or the moved-in
    // original): loop events and tick profiles describe an execution,
    // and a replayed result has none. The hold time is one map move;
    // a deep copy under the mutex made every concurrent lookup wait
    // (measurable on the --jobs scaling audit).
    result.loopEvents.clear();
    result.tickProfile.clear();
    std::lock_guard<std::mutex> lock(mutex);
    entries.emplace(fp, std::move(result));
}

std::size_t
ResultMemo::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

void
ResultMemo::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    entries.clear();
}

void
setStorePath(const std::string &dir)
{
    processOptions().storePath = dir;
    // Re-open on the next processStore() call.
    std::lock_guard<std::mutex> lock(processMutex);
    openedStore.reset();
    openedPath.clear();
}

std::string
storePath()
{
    return processOptions().storePath;
}

bool
storeConfigured()
{
    return !storePath().empty();
}

ResultStore *
processStore()
{
    std::string path = storePath();
    if (path.empty())
        return nullptr;
    std::lock_guard<std::mutex> lock(processMutex);
    if (!openedStore || openedPath != path) {
        openedStore = std::make_unique<ResultStore>(path);
        openedPath = path;
    }
    return openedStore.get();
}

ResultMemo &
processMemo()
{
    // The memo locks its own mutex around every lookup/insert.
    LOOPSIM_CAMPAIGN_GUARDED("ResultMemo internal mutex")
    static ResultMemo memo;
    return memo;
}

void
resetProcessStore()
{
    setStorePath("");
    processMemo().clear();
}

std::vector<StoreEntry>
scanStore(const std::string &dir, bool decode)
{
    std::vector<StoreEntry> out;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return out;

    for (fs::recursive_directory_iterator
             it(dir, fs::directory_options::skip_permission_denied, ec),
         end;
         it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec) || it->path().extension() != ".lsr")
            continue;

        StoreEntry entry;
        entry.path = it->path().string();
        entry.bytes = static_cast<std::uint64_t>(it->file_size(ec));
        entry.mtimeSeconds = mtimeSeconds(it->path(), ec);

        // The fingerprint is the fan-out directory name plus the file
        // stem; a record that does not live under its own fingerprint
        // is treated like any other damage.
        std::string hex = it->path().parent_path().filename().string() +
                          it->path().stem().string();
        bool named_ok = Fingerprint::parse(hex, entry.fp);

        std::string bytes;
        if (named_ok && readFile(it->path().string(), bytes)) {
            std::uint32_t schema = 0;
            Fingerprint stored;
            if (peekRecord(bytes, stored, schema))
                entry.schema = schema;
            if (decode) {
                entry.valid =
                    decodeRecord(bytes, entry.fp, entry.result);
            } else {
                entry.valid = stored == entry.fp &&
                              schema == kSchemaVersion &&
                              bytes.size() >= kRecordHeaderBytes;
            }
        }
        out.push_back(std::move(entry));
    }

    std::sort(out.begin(), out.end(),
              [](const StoreEntry &a, const StoreEntry &b) {
                  return a.fp < b.fp;
              });
    return out;
}

VerifyReport
verifyStore(const std::string &dir)
{
    VerifyReport report;
    for (const StoreEntry &entry : scanStore(dir, /*decode=*/true)) {
        ++report.records;
        if (!entry.valid) {
            ++report.corrupt;
            report.corruptPaths.push_back(entry.path);
        }
    }
    return report;
}

GcReport
gcStore(const std::string &dir, std::uint64_t max_bytes)
{
    GcReport report;
    std::error_code dir_ec;
    if (!fs::is_directory(dir, dir_ec))
        return report;

    // Exclusive: waits out in-flight writers (shared holders in
    // insert()) and holds new ones off while records and emptied
    // fan-out directories are removed, so gc is safe to run against a
    // store a live campaign is inserting into.
    StoreLock lock(dir, /*exclusive=*/true);

    std::vector<StoreEntry> entries = scanStore(dir, /*decode=*/true);
    report.scanned = entries.size();
    for (const StoreEntry &e : entries)
        report.bytesBefore += e.bytes;
    report.bytesAfter = report.bytesBefore;

    // Eviction order: invalid records first (they are dead weight),
    // then oldest modification time; fingerprint as the final tie
    // break keeps gc deterministic for same-mtime records.
    std::sort(entries.begin(), entries.end(),
              [](const StoreEntry &a, const StoreEntry &b) {
                  if (a.valid != b.valid)
                      return !a.valid;
                  if (a.mtimeSeconds != b.mtimeSeconds)
                      return a.mtimeSeconds < b.mtimeSeconds;
                  return a.fp < b.fp;
              });

    std::error_code ec;
    for (const StoreEntry &entry : entries) {
        if (report.bytesAfter <= max_bytes)
            break;
        if (fs::remove(entry.path, ec) && !ec) {
            ++report.removed;
            report.bytesAfter -= entry.bytes;
        }
    }

    // Drop fan-out directories emptied by the eviction pass.
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_directory(ec) && fs::is_empty(it->path(), ec))
            fs::remove(it->path(), ec);
    }
    return report;
}

StoreSummary
summarizeStore(const std::string &dir)
{
    StoreSummary summary;
    summary.dir = dir;
    for (const StoreEntry &entry : scanStore(dir, /*decode=*/false)) {
        ++summary.records;
        summary.bytes += entry.bytes;
        if (!entry.valid)
            ++summary.invalid;
    }
    return summary;
}

std::string
storeSummaryJson(const StoreSummary &summary)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"dir\": \"" << summary.dir << "\",\n";
    out << "  \"records\": " << summary.records << ",\n";
    out << "  \"bytes\": " << summary.bytes << ",\n";
    out << "  \"invalid\": " << summary.invalid << "\n";
    out << "}\n";
    return out.str();
}

} // namespace loopsim::store
