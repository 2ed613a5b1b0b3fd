/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Common CLI surface: `<bench> [OPS] [--csv] [--jobs N|auto] [-j N]
 * [--trace PATH] [--profile] [--store DIR] [--isolate]
 * [--deadline-ms N] [--journal DIR]` in any argument order (value
 * flags also take the `--flag=V` form), plus the LOOPSIM_BENCH_OPS,
 * LOOPSIM_JOBS, LOOPSIM_TRACE, LOOPSIM_PROFILE, LOOPSIM_STORE,
 * LOOPSIM_ISOLATE, LOOPSIM_DEADLINE_MS and LOOPSIM_JOURNAL environment
 * variables. detail::kFlags is the only list of accepted flags: an
 * unknown `-`-prefixed argument or a second positional argument exits
 * 2 with usage before any cell runs. `--jobs auto` means the host CPU
 * count. Every binary records campaign telemetry (wall clock,
 * runs/sec, cache activity, supervision counters, and the kernel
 * tick profile when --profile is on) into BENCH_campaign.json on
 * exit — including on a SIGINT/SIGTERM drain, via the campaign
 * interrupt-flush hook; --trace additionally writes the campaign's
 * loop-event trace (Chrome JSON, or CSV for *.csv paths — see
 * src/trace/loop_trace.hh and DESIGN.md §11); --store points the
 * persistent result store at a directory, so reruns replay cached
 * cells instead of simulating (src/store/, DESIGN.md §12); --isolate
 * runs each cell in a supervised forked worker with --deadline-ms as
 * its wall-clock watchdog, and --journal makes the campaign resumable
 * after a crash or interrupt (DESIGN.md §13).
 */

#ifndef LOOPSIM_BENCH_BENCH_UTIL_HH
#define LOOPSIM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hh"
#include "harness/supervisor.hh"
#include "store/journal.hh"
#include "store/result_store.hh"
#include "trace/loop_trace.hh"

namespace loopsim::benchutil
{

namespace detail
{

/** One accepted flag; @c metavar is null for a bare switch. */
struct FlagSpec
{
    const char *name;
    const char *metavar;
};

/** Every flag a bench binary accepts, in usage order. */
inline constexpr FlagSpec kFlags[] = {
    {"--csv", nullptr},        {"--jobs", "N|auto"},
    {"-j", "N|auto"},          {"--trace", "PATH"},
    {"--profile", nullptr},    {"--store", "DIR"},
    {"--isolate", nullptr},    {"--deadline-ms", "N"},
    {"--journal", "DIR"},
};

inline const FlagSpec *
findFlag(const std::string &name)
{
    for (const FlagSpec &f : kFlags) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

/** Print @p why and the usage line, then exit 2. */
[[noreturn]] inline void
usageError(const char *prog, const std::string &why)
{
    std::fprintf(stderr, "%s\nusage: %s [OPS]", why.c_str(), prog);
    for (const FlagSpec &f : kFlags) {
        if (f.metavar)
            std::fprintf(stderr, " [%s %s]", f.name, f.metavar);
        else
            std::fprintf(stderr, " [%s]", f.name);
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Parse a non-negative integer; exits with a diagnostic otherwise. */
inline std::uint64_t
parseCount(const std::string &text, const char *what)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end == text.c_str() || *end != '\0' ||
        text[0] == '-') {
        std::fprintf(stderr, "invalid %s: \"%s\" (expected a "
                     "non-negative integer)\n", what, text.c_str());
        std::exit(2);
    }
    return static_cast<std::uint64_t>(v);
}

/** argv checked against kFlags. */
struct BenchArgs
{
    /** (flag, value) in argv order; the value is "" for a switch. */
    std::vector<std::pair<std::string, std::string>> flags;
    /** The one positional argument (the op count), or null. */
    const char *positional = nullptr;

    bool
    has(const std::string &flag) const
    {
        for (const auto &f : flags) {
            if (f.first == flag)
                return true;
        }
        return false;
    }

    /** Value of the first @p flag given, or "" when absent. */
    std::string
    value(const std::string &flag) const
    {
        for (const auto &f : flags) {
            if (f.first == flag)
                return f.second;
        }
        return "";
    }
};

/**
 * Split argv into flags and the positional argument. An unknown
 * `-`-prefixed argument, a switch given a value, a value flag with
 * nothing after it, or a second positional argument exits 2.
 */
inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            if (args.positional)
                usageError(argv[0], "unexpected argument \"" + a + "\"");
            args.positional = argv[i];
            continue;
        }
        const std::size_t eq = a.find('=');
        const std::string name = a.substr(0, eq);
        const FlagSpec *spec = findFlag(name);
        if (!spec || (eq != std::string::npos && !spec->metavar))
            usageError(argv[0], "unknown option \"" + a + "\"");
        std::string value;
        if (eq != std::string::npos) {
            value = a.substr(eq + 1);
        } else if (spec->metavar) {
            if (i + 1 >= argc)
                usageError(argv[0], name + " needs a value");
            value = argv[++i];
        }
        args.flags.emplace_back(name, std::move(value));
    }
    return args;
}

/**
 * A directory flag's value: `--flag DIR` / `--flag=DIR`, else
 * @p fallback when the flag is absent. A flag with an empty path is a
 * usage error (exit 2) rather than a silently disabled feature.
 */
inline std::string
dirFlag(int argc, char **argv, const std::string &flag,
        const std::string &fallback)
{
    const BenchArgs args = parseArgs(argc, argv);
    if (!args.has(flag))
        return fallback;
    std::string path = args.value(flag);
    if (path.empty()) {
        std::fprintf(stderr, "%s needs a directory path (usage: %s DIR "
                     "or %s=DIR)\n", flag.c_str(), flag.c_str(),
                     flag.c_str());
        std::exit(2);
    }
    return path;
}

} // namespace detail

/**
 * Correct-path ops per run: the positional argument wherever it sits
 * on the command line, else LOOPSIM_BENCH_OPS, else @p def. A
 * non-numeric or zero count is rejected with exit code 2 instead of
 * silently becoming 0 ops. Every bench binary calls this first, so
 * its argv check is what rejects a bad command line before any cell
 * runs.
 */
inline std::uint64_t
benchOps(int argc, char **argv, std::uint64_t def = 200000)
{
    const detail::BenchArgs args = detail::parseArgs(argc, argv);
    if (args.positional) {
        std::uint64_t ops = detail::parseCount(args.positional,
                                               "op count");
        if (ops == 0) {
            std::fprintf(stderr, "op count must be positive\n");
            std::exit(2);
        }
        return ops;
    }
    if (const char *env = std::getenv("LOOPSIM_BENCH_OPS")) {
        std::uint64_t ops = detail::parseCount(env, "LOOPSIM_BENCH_OPS");
        if (ops > 0)
            return ops;
    }
    return def;
}

/**
 * Worker count from `--jobs N|auto`, `--jobs=N|auto` or `-j N`; "auto"
 * resolves to the host's hardware thread count. 0 (automatic:
 * LOOPSIM_JOBS, then hardware_concurrency) when absent.
 */
inline unsigned
benchJobs(int argc, char **argv)
{
    const detail::BenchArgs args = detail::parseArgs(argc, argv);
    for (const auto &[flag, value] : args.flags) {
        if (flag != "--jobs" && flag != "-j")
            continue;
        bool ok = false;
        unsigned jobs = parseJobsSpec(value, ok);
        if (!ok) {
            std::fprintf(stderr, "invalid job count: \"%s\" (expected "
                         "a number or \"auto\")\n", value.c_str());
            std::exit(2);
        }
        return jobs;
    }
    return 0;
}

/** True when the user asked for CSV output (--csv anywhere in argv). */
inline bool
wantCsv(int argc, char **argv)
{
    return detail::parseArgs(argc, argv).has("--csv");
}

/**
 * Loop-event trace output path: `--trace PATH` / `--trace=PATH`, else
 * the LOOPSIM_TRACE environment variable; "" when tracing is off.
 */
inline std::string
benchTrace(int argc, char **argv)
{
    std::string path = detail::parseArgs(argc, argv).value("--trace");
    return !path.empty() ? path : trace::tracePath();
}

/** Kernel self-profiling: `--profile`, else LOOPSIM_PROFILE. */
inline bool
benchProfile(int argc, char **argv)
{
    return detail::parseArgs(argc, argv).has("--profile") ||
           tickProfilingActive();
}

/**
 * Persistent result-store directory: `--store DIR` / `--store=DIR`,
 * else the LOOPSIM_STORE environment variable; "" when the store is
 * off.
 */
inline std::string
benchStore(int argc, char **argv)
{
    return detail::dirFlag(argc, argv, "--store", store::storePath());
}

/** Crash isolation: `--isolate`, else LOOPSIM_ISOLATE. */
inline bool
benchIsolate(int argc, char **argv)
{
    return detail::parseArgs(argc, argv).has("--isolate") ||
           isolationActive();
}

/**
 * Per-cell wall-clock deadline in ms: `--deadline-ms N` /
 * `--deadline-ms=N`, else LOOPSIM_DEADLINE_MS; 0 = no deadline.
 */
inline std::uint64_t
benchDeadlineMs(int argc, char **argv)
{
    const detail::BenchArgs args = detail::parseArgs(argc, argv);
    if (args.has("--deadline-ms"))
        return detail::parseCount(args.value("--deadline-ms"), "deadline");
    return deadlineMs();
}

/**
 * Campaign journal directory: `--journal DIR` / `--journal=DIR`, else
 * the LOOPSIM_JOURNAL environment variable; "" when journaling is
 * off.
 */
inline std::string
benchJournal(int argc, char **argv)
{
    return detail::dirFlag(argc, argv, "--journal", store::journalPath());
}

/** Workloads used by ablation benches (a representative subset). */
inline std::vector<std::string>
ablationWorkloads()
{
    return {"gcc", "swim", "turb3d", "apsi"};
}

/**
 * Records one bench invocation's campaign telemetry into
 * BENCH_campaign.json (override the path with LOOPSIM_BENCH_JSON).
 * Construct it at the top of main(); the destructor appends a JSON
 * entry with the cumulative campaign wall clock and runs/sec, so the
 * perf trajectory of the figure suite is recorded run over run. The
 * constructor also installs the --jobs worker count, enables trace
 * collection when --trace/LOOPSIM_TRACE names a path (the destructor
 * writes the collected trace there), turns on kernel tick profiling
 * under --profile/LOOPSIM_PROFILE (recorded as the entry's
 * "tick_profile" array), arms crash isolation / deadlines /
 * journaling from their flags, and registers itself as the campaign
 * interrupt-flush hook so a SIGINT/SIGTERM drain still writes the
 * (partial) telemetry entry before the process exits.
 */
class CampaignRecorder
{
  public:
    CampaignRecorder(std::string bench_name, std::uint64_t ops,
                     int argc, char **argv)
        : name(std::move(bench_name)), totalOps(ops),
          tracePath(benchTrace(argc, argv)),
          start(std::chrono::steady_clock::now())
    {
        setCampaignJobs(benchJobs(argc, argv));
        if (!tracePath.empty()) {
            trace::setTracePath(tracePath);
            trace::setCollection(true);
        }
        if (benchProfile(argc, argv))
            setTickProfiling(true);
        std::string store_dir = benchStore(argc, argv);
        if (!store_dir.empty())
            store::setStorePath(store_dir);
        if (benchIsolate(argc, argv))
            setIsolation(true);
        setDeadlineMs(benchDeadlineMs(argc, argv));
        std::string journal_dir = benchJournal(argc, argv);
        if (!journal_dir.empty())
            store::setJournalPath(journal_dir);
        // The campaign executor runs on this thread, so the hook fires
        // with this object alive and no concurrent flush possible.
        setCampaignInterruptFlush([this] { flush(); });
    }

    ~CampaignRecorder()
    {
        setCampaignInterruptFlush(nullptr);
        flush();
    }

    CampaignRecorder(const CampaignRecorder &) = delete;
    CampaignRecorder &operator=(const CampaignRecorder &) = delete;

    /** Write the telemetry entry (and the trace, when tracing). Runs
     *  once: the interrupt hook and the destructor share the guard. */
    void
    flush()
    {
        if (flushed)
            return;
        flushed = true;
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        CampaignTelemetry t = campaignTotals();
        std::ostringstream entry;
        entry << "  {\"bench\": \"" << name << "\""
              << ", \"ops\": " << totalOps
              // Every bench plan keeps RunSpec's warmup per cell.
              << ", \"warmup_ops\": " << RunSpec{}.warmupOps
              << ", \"jobs\": " << t.jobs
              << ", \"host_cpus\": " << t.hostCpus
              << ", \"runs\": " << t.runs
              << ", \"failures\": " << t.failures
              << ", \"simulated\": " << t.simulated
              << ", \"campaign_wall_s\": " << t.wallSeconds
              << ", \"runs_per_s\": " << t.runsPerSecond()
              << ", \"process_wall_s\": " << wall.count()
              << ", \"interrupted\": "
              << (t.interrupted ? "true" : "false")
              << ", \"store\": {\"dir\": \"" << store::storePath()
              << "\", \"memo_hits\": " << t.memoHits
              << ", \"hits\": " << t.store.hits
              << ", \"misses\": " << t.store.misses
              << ", \"inserts\": " << t.store.inserts
              << ", \"crc_rejects\": " << t.store.crcRejects
              << ", \"bytes_read\": " << t.store.bytesRead
              << ", \"bytes_written\": " << t.store.bytesWritten << "}"
              << ", \"supervision\": {\"isolate\": "
              << (isolationActive() ? "true" : "false")
              << ", \"deadline_ms\": " << deadlineMs()
              << ", \"journal\": \"" << store::journalPath()
              << "\", \"isolated_runs\": " << t.isolatedRuns
              << ", \"crashes\": " << t.crashes
              << ", \"timeouts\": " << t.timeouts
              << ", \"spawn_retries\": " << t.spawnRetries
              << ", \"backoff_waits\": " << t.backoffWaits
              << ", \"backoff_wait_ms\": " << t.backoffWaitMs
              << ", \"resumed\": " << t.resumed << "}";
        if (!t.workers.empty()) {
            entry << ", \"workers\": [";
            for (std::size_t i = 0; i < t.workers.size(); ++i) {
                const WorkerTelemetry &w = t.workers[i];
                entry << (i ? ", " : "") << "{\"id\": " << w.id
                      << ", \"cells\": " << w.cells
                      << ", \"busy_s\": " << w.busySeconds
                      << ", \"claim_wait_s\": " << w.claimWaitSeconds
                      << ", \"idle_s\": " << w.idleSeconds << "}";
            }
            entry << "]";
        }
        if (!t.tickProfile.empty()) {
            // "seconds" is scaled up from the strided sample of tick
            // timings the kernel actually measures ("measured_ticks"
            // of "ticks" — see Simulator::setProfilingStride), so it
            // estimates the full cost while the clock reads that
            // would have made --profile runs crawl are batched away.
            entry << ", \"tick_profile\": [";
            for (std::size_t i = 0; i < t.tickProfile.size(); ++i) {
                const ComponentProfile &p = t.tickProfile[i];
                entry << (i ? ", " : "") << "{\"component\": \""
                      << p.name << "\", \"ticks\": " << p.ticks
                      << ", \"measured_ticks\": " << p.measuredTicks
                      << ", \"scan_ticks\": " << p.scanTicks
                      << ", \"seconds\": " << p.seconds << "}";
            }
            entry << "]";
        }
        entry << "}";
        append(entry.str());

        if (!tracePath.empty() &&
            !trace::writeTraceFile(tracePath,
                                   trace::takeCollectedRuns())) {
            std::fprintf(stderr, "could not write trace file %s\n",
                         tracePath.c_str());
        }
    }

  private:
    /** Append @p entry to the JSON array, creating the file if absent.
     *  The file is rewritten whole: read, splice before the closing
     *  bracket, write back. Bench binaries run one at a time. */
    void
    append(const std::string &entry) const
    {
        const char *env = std::getenv("LOOPSIM_BENCH_JSON");
        std::string path = env && *env ? env : "BENCH_campaign.json";

        std::string body;
        {
            std::ifstream in(path);
            std::ostringstream buf;
            buf << in.rdbuf();
            body = buf.str();
        }
        std::size_t close = body.rfind(']');
        std::string out;
        if (close == std::string::npos) {
            out = "[\n" + entry + "\n]\n";
        } else {
            std::string head = body.substr(0, close);
            while (!head.empty() &&
                   (head.back() == '\n' || head.back() == ' ')) {
                head.pop_back();
            }
            bool first = head.find('{') == std::string::npos;
            out = head + (first ? "\n" : ",\n") + entry + "\n]\n";
        }
        std::ofstream of(path, std::ios::trunc);
        of << out;
    }

    std::string name;
    std::uint64_t totalOps;
    std::string tracePath;
    std::chrono::steady_clock::time_point start;
    bool flushed = false;
};

} // namespace loopsim::benchutil

#endif // LOOPSIM_BENCH_BENCH_UTIL_HH
