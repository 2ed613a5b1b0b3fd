/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Common CLI surface: `<bench> [OPS] [--jobs N|auto] [--csv]
 * [--trace PATH] [--profile] [--store DIR] [--isolate]
 * [--deadline-ms N] [--journal DIR] [--server HOST:PORT]` in any
 * argument order, plus the LOOPSIM_BENCH_OPS, LOOPSIM_JOBS,
 * LOOPSIM_TRACE, LOOPSIM_PROFILE, LOOPSIM_STORE, LOOPSIM_ISOLATE,
 * LOOPSIM_DEADLINE_MS, LOOPSIM_JOURNAL and LOOPSIM_SERVER environment
 * variables. `--server` delegates every campaign to a loopsim-serve
 * daemon (results stay byte-identical to local runs; the entry grows a
 * "serve" telemetry object); `--jobs auto` means the host CPU count. Every binary records campaign telemetry (wall clock,
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
#include <vector>

#include "harness/campaign.hh"
#include "harness/supervisor.hh"
#include "serve/client.hh"
#include "store/journal.hh"
#include "store/result_store.hh"
#include "trace/loop_trace.hh"

namespace loopsim::benchutil
{

namespace detail
{

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

/** True for flags that consume the following argument. */
inline bool
flagTakesValue(const std::string &flag)
{
    return flag == "--jobs" || flag == "-j" || flag == "--trace" ||
           flag == "--store" || flag == "--deadline-ms" ||
           flag == "--journal" || flag == "--server";
}

/** Value of a `--flag V` / `--flag=V` option, or "" when absent. */
inline std::string
flagValue(int argc, char **argv, const std::string &flag)
{
    const std::string prefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind(prefix, 0) == 0)
            return a.substr(prefix.size());
        if (a != flag)
            continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag.c_str());
            std::exit(2);
        }
        return argv[i + 1];
    }
    return "";
}

/** True when @p flag appears anywhere in argv. */
inline bool
hasFlag(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i < argc; ++i) {
        if (flag == argv[i])
            return true;
    }
    return false;
}

} // namespace detail

/**
 * Correct-path ops per run: the first non-flag argument wherever it
 * sits on the command line (flags like --csv / --jobs N / --jobs=N are
 * skipped, never misread as a count), else LOOPSIM_BENCH_OPS, else
 * @p def. A non-numeric or zero count is rejected with exit code 2
 * instead of silently becoming 0 ops.
 */
inline std::uint64_t
benchOps(int argc, char **argv, std::uint64_t def = 200000)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (!a.empty() && a[0] == '-') {
            if (detail::flagTakesValue(a))
                ++i; // skip the flag's value too
            continue;
        }
        std::uint64_t ops = detail::parseCount(a, "op count");
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
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string value;
        if (a.rfind("--jobs=", 0) == 0) {
            value = a.substr(7);
        } else if (a == "--jobs" || a == "-j") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            value = argv[++i];
        } else {
            // Other value-taking flags (--trace PATH): skip the value
            // so it is never misread as a job count.
            if (detail::flagTakesValue(a))
                ++i;
            continue;
        }
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
    return detail::hasFlag(argc, argv, "--csv");
}

/**
 * Loop-event trace output path: `--trace PATH` / `--trace=PATH`, else
 * the LOOPSIM_TRACE environment variable; "" when tracing is off.
 */
inline std::string
benchTrace(int argc, char **argv)
{
    std::string path = detail::flagValue(argc, argv, "--trace");
    return !path.empty() ? path : trace::tracePath();
}

/** Kernel self-profiling: `--profile`, else LOOPSIM_PROFILE. */
inline bool
benchProfile(int argc, char **argv)
{
    return detail::hasFlag(argc, argv, "--profile") ||
           tickProfilingActive();
}

/**
 * Persistent result-store directory: `--store DIR` / `--store=DIR`,
 * else the LOOPSIM_STORE environment variable; "" when the store is
 * off. A `--store` with a missing or empty path is a usage error
 * (exit 2) rather than a silently disabled cache.
 */
inline std::string
benchStore(int argc, char **argv)
{
    bool present = detail::hasFlag(argc, argv, "--store");
    std::string path = detail::flagValue(argc, argv, "--store");
    if (path.empty() && (present || detail::hasFlag(argc, argv,
                                                    "--store="))) {
        std::fprintf(stderr, "--store needs a directory path "
                     "(usage: --store DIR or --store=DIR)\n");
        std::exit(2);
    }
    return !path.empty() ? path : store::storePath();
}

/** Crash isolation: `--isolate`, else LOOPSIM_ISOLATE. */
inline bool
benchIsolate(int argc, char **argv)
{
    return detail::hasFlag(argc, argv, "--isolate") ||
           isolationActive();
}

/**
 * Per-cell wall-clock deadline in ms: `--deadline-ms N` /
 * `--deadline-ms=N`, else LOOPSIM_DEADLINE_MS; 0 = no deadline.
 */
inline std::uint64_t
benchDeadlineMs(int argc, char **argv)
{
    std::string value = detail::flagValue(argc, argv, "--deadline-ms");
    if (!value.empty())
        return detail::parseCount(value, "deadline");
    return deadlineMs();
}

/**
 * Campaign journal directory: `--journal DIR` / `--journal=DIR`, else
 * the LOOPSIM_JOURNAL environment variable; "" when journaling is
 * off. A `--journal` with a missing path is a usage error (exit 2).
 */
inline std::string
benchJournal(int argc, char **argv)
{
    bool present = detail::hasFlag(argc, argv, "--journal");
    std::string path = detail::flagValue(argc, argv, "--journal");
    if (path.empty() && (present || detail::hasFlag(argc, argv,
                                                    "--journal="))) {
        std::fprintf(stderr, "--journal needs a directory path "
                     "(usage: --journal DIR or --journal=DIR)\n");
        std::exit(2);
    }
    return !path.empty() ? path : store::journalPath();
}

/**
 * Campaign-service endpoint: `--server HOST:PORT` / `--server=...`,
 * else the LOOPSIM_SERVER environment variable; "" when local. A
 * `--server` with a missing endpoint is a usage error (exit 2).
 */
inline std::string
benchServer(int argc, char **argv)
{
    bool present = detail::hasFlag(argc, argv, "--server");
    std::string endpoint = detail::flagValue(argc, argv, "--server");
    if (endpoint.empty() && (present || detail::hasFlag(argc, argv,
                                                        "--server="))) {
        std::fprintf(stderr, "--server needs an endpoint (usage: "
                     "--server HOST:PORT)\n");
        std::exit(2);
    }
    return !endpoint.empty() ? endpoint : serve::serveEndpoint();
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
        std::string server = benchServer(argc, argv);
        if (!server.empty())
            serve::setServeEndpoint(server);
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
        if (serve::serveConfigured()) {
            const serve::ServeTelemetry s = serve::lastClientTelemetry();
            entry << ", \"serve\": {\"endpoint\": \""
                  << serve::serveEndpoint()
                  << "\", \"tenant\": \"" << s.tenant
                  << "\", \"cells\": " << s.cells
                  << ", \"queued\": " << s.queued
                  << ", \"simulated\": " << s.simulated
                  << ", \"cache_hits\": " << s.cacheHits
                  << ", \"dedup_hits\": " << s.dedupHits
                  << ", \"resumed\": " << s.resumed
                  << ", \"failures\": " << s.failures
                  << ", \"crashes\": " << s.crashes
                  << ", \"timeouts\": " << s.timeouts
                  << ", \"reconnects\": " << s.reconnects
                  << ", \"wall_s\": " << s.wallSeconds << "}";
        }
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
