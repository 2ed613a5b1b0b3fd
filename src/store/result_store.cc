#include "store/result_store.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
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
        fs::remove(tmp, ec);
        return false;
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
scanStore(const std::string &dir)
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
            entry.valid = decodeRecord(bytes, entry.fp, entry.result);
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
    for (const StoreEntry &entry : scanStore(dir)) {
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

    // gc removes record files only, never a fan-out directory (there
    // are at most 256), so it cannot pull a directory out from under
    // an insert's create_directories() + rename() and needs no lock
    // against live campaigns.
    std::vector<StoreEntry> entries = scanStore(dir);
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
    return report;
}

} // namespace loopsim::store
