/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Common CLI surface: `<bench> [OPS] [--csv] [--jobs N|auto] [-j N]
 * [--trace PATH] [--store DIR] [--isolate]
 * [--deadline-ms N] [--journal DIR]` in any argument order (value
 * flags also take the `--flag=V` form). parseCli() reads argv once
 * into the process's RunOptions (base/options.hh), so a flag wins
 * over its LOOPSIM_* variable; README.md's knob table lists both.
 * detail::kFlags is the only list of accepted flags: an unknown
 * `-`-prefixed argument, a bad value or a second positional argument
 * exits 2 with usage before any cell runs, as does a bad LOOPSIM_*
 * variable. `--jobs auto` means the host CPU count. Every binary
 * records campaign telemetry (wall clock, runs/sec, cache activity,
 * supervision counters, the resolved options, and the kernel tick
 * profile) into BENCH_campaign.json when it exits normally; a run
 * killed by a signal records nothing. --trace additionally writes the
 * campaign's loop-event trace (Chrome JSON, or CSV for *.csv paths — see
 * src/trace/loop_trace.hh and DESIGN.md §11); --store points the
 * persistent result store at a directory, so reruns replay cached
 * cells instead of simulating (src/store/, DESIGN.md §12); --isolate
 * runs each cell in a supervised forked worker with --deadline-ms as
 * its wall-clock watchdog, and --journal makes the campaign resumable
 * after a crash, a kill or a Ctrl-C (DESIGN.md §13).
 */

#ifndef LOOPSIM_BENCH_BENCH_UTIL_HH
#define LOOPSIM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "base/debug.hh"
#include "harness/campaign.hh"
#include "harness/report.hh"
#include "harness/supervisor.hh"
#include "sim/feedback_port.hh"
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
    {"--store", "DIR"},        {"--isolate", nullptr},
    {"--deadline-ms", "N"},    {"--journal", "DIR"},
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

/** A count argument (options.hh's grammar); exits 2 otherwise. */
inline std::uint64_t
countArg(const std::string &text, const char *what)
{
    std::uint64_t v = 0;
    if (!parseCount(text, v)) {
        std::fprintf(stderr, "invalid %s: \"%s\" (expected a "
                     "whole unsigned integer)\n", what, text.c_str());
        std::exit(2);
    }
    return v;
}

/** A path flag's value; an empty one exits 2. */
inline const std::string &
pathValue(const FlagSpec &flag, const std::string &value)
{
    if (value.empty()) {
        const bool dir = std::string(flag.metavar) == "DIR";
        std::fprintf(stderr, "%s needs a %s (usage: %s %s or %s=%s)\n",
                     flag.name, dir ? "directory path" : "path",
                     flag.name, flag.metavar, flag.name, flag.metavar);
        std::exit(2);
    }
    return value;
}

/** @p text as a JSON string literal. */
inline std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace detail

/** A bench binary's command line, read once. */
struct BenchCli
{
    /** Correct-path ops per run: the positional argument, else
     *  LOOPSIM_BENCH_OPS, else the binary's default. */
    std::uint64_t ops = 0;
    bool csv = false; ///< --csv
    /** processOptions() with the flags applied. */
    RunOptions opts;
};

/**
 * Read argv against kFlags into a BenchCli. An unknown `-`-prefixed
 * argument, a switch given a value, a value flag with nothing after
 * it, a bad value, or a second positional argument exits 2; so does a
 * bad LOOPSIM_* variable, because this resolves the process options
 * first. Every bench binary calls this before anything else.
 */
inline BenchCli
parseCli(int argc, char **argv, std::uint64_t def_ops = 200000)
{
    BenchCli cli;
    cli.opts = processOptions();
    cli.ops = cli.opts.benchOps ? cli.opts.benchOps : def_ops;
    bool positional = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            if (positional)
                detail::usageError(argv[0],
                                   "unexpected argument \"" + a + "\"");
            positional = true;
            cli.ops = detail::countArg(a, "op count");
            if (cli.ops == 0) {
                std::fprintf(stderr, "op count must be positive\n");
                std::exit(2);
            }
            continue;
        }
        const std::size_t eq = a.find('=');
        const std::string name = a.substr(0, eq);
        const detail::FlagSpec *spec = detail::findFlag(name);
        if (!spec || (eq != std::string::npos && !spec->metavar))
            detail::usageError(argv[0], "unknown option \"" + a + "\"");
        std::string value;
        if (eq != std::string::npos) {
            value = a.substr(eq + 1);
        } else if (spec->metavar) {
            if (i + 1 >= argc)
                detail::usageError(argv[0], name + " needs a value");
            value = argv[++i];
        }

        RunOptions &o = cli.opts;
        if (name == "--csv") {
            cli.csv = true;
        } else if (name == "--jobs" || name == "-j") {
            bool ok = false;
            o.jobs = parseJobsSpec(value, ok);
            if (!ok) {
                std::fprintf(stderr, "invalid job count: \"%s\" "
                             "(expected a number or \"auto\")\n",
                             value.c_str());
                std::exit(2);
            }
        } else if (name == "--trace") {
            o.tracePath = detail::pathValue(*spec, value);
            o.traceCollection = true;
        } else if (name == "--store") {
            o.storePath = detail::pathValue(*spec, value);
        } else if (name == "--isolate") {
            o.isolate = true;
        } else if (name == "--deadline-ms") {
            o.deadlineMs = detail::countArg(value, "deadline");
        } else if (name == "--journal") {
            o.journalPath = detail::pathValue(*spec, value);
        }
    }
    return cli;
}

/** Print @p fig on stdout: CSV under --csv, else the aligned table in
 *  @p format. A binary with several figures prints each in turn. */
inline void
print(const BenchCli &cli, const FigureData &fig,
      ValueFormat format = ValueFormat::Percent)
{
    if (cli.csv)
        printCsv(std::cout, fig);
    else
        printFigure(std::cout, fig, format);
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
 * perf trajectory of the figure suite is recorded run over run; the
 * entry also carries the resolved options and the "tick_profile"
 * array. The constructor installs the command line's options through
 * each layer's setter. With a trace path, the destructor also writes
 * the collected trace there.
 */
class CampaignRecorder
{
  public:
    CampaignRecorder(std::string bench_name, const BenchCli &cli)
        : name(std::move(bench_name)), totalOps(cli.ops),
          tracePath(cli.opts.tracePath),
          start(std::chrono::steady_clock::now())
    {
        const RunOptions &o = cli.opts;
        setCampaignJobs(o.jobs);
        trace::setCollection(o.traceCollection);
        store::setStorePath(o.storePath);
        setIsolation(o.isolate);
        setDeadlineMs(o.deadlineMs);
        store::setJournalPath(o.journalPath);
    }

    ~CampaignRecorder() { flush(); }

    CampaignRecorder(const CampaignRecorder &) = delete;
    CampaignRecorder &operator=(const CampaignRecorder &) = delete;

  private:
    /** Write the telemetry entry (and the trace, when tracing). */
    void
    flush()
    {
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
              << ", \"store\": {\"dir\": "
              << detail::jsonString(store::storePath())
              << ", \"memo_hits\": " << t.memoHits
              << ", \"hits\": " << t.store.hits
              << ", \"misses\": " << t.store.misses
              << ", \"inserts\": " << t.store.inserts
              << ", \"crc_rejects\": " << t.store.crcRejects
              << ", \"bytes_read\": " << t.store.bytesRead
              << ", \"bytes_written\": " << t.store.bytesWritten << "}"
              << ", \"supervision\": {\"isolate\": "
              << (isolationActive() ? "true" : "false")
              << ", \"deadline_ms\": " << deadlineMs()
              << ", \"journal\": "
              << detail::jsonString(store::journalPath())
              << ", \"isolated_runs\": " << t.isolatedRuns
              << ", \"crashes\": " << t.crashes
              << ", \"timeouts\": " << t.timeouts
              << ", \"spawn_retries\": " << t.spawnRetries
              << ", \"resumed\": " << t.resumed << "}";
        const RunOptions &o = processOptions();
        entry << ", \"options\": {\"kernel\": \""
              << (o.denseKernel ? "dense" : "sparse")
              << "\", \"audit\": " << (o.audit ? "true" : "false")
              << ", \"debug\": "
              << detail::jsonString(debug::flagsText(o.debugFlags))
              << ", \"overlay\": {";
        for (auto it = o.overlay.begin(); it != o.overlay.end(); ++it) {
            entry << (it == o.overlay.begin() ? "" : ", ")
                  << detail::jsonString(it->first) << ": "
                  << detail::jsonString(it->second);
        }
        entry << "}}";
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
            // Exact counts, and seconds that sum to the cells' timed
            // Simulator::run() calls (DESIGN.md §11).
            entry << ", \"tick_profile\": [";
            for (std::size_t i = 0; i < t.tickProfile.size(); ++i) {
                const ComponentProfile &p = t.tickProfile[i];
                entry << (i ? ", " : "") << "{\"component\": \""
                      << p.name << "\", \"ticks\": " << p.ticks
                      << ", \"measured_ticks\": " << p.measuredTicks
                      << ", \"scan_ticks\": " << p.scanTicks
                      << ", \"seconds\": " << p.seconds
                      << ", \"counters\": {";
                for (unsigned k = 0; k < KernelCounters::kCount; ++k) {
                    entry << (k ? ", " : "") << "\""
                          << KernelCounters::kNames[k]
                          << "\": " << p.counters.n[k];
                }
                entry << "}}";
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

    /** Append @p entry to the JSON array, creating the file if absent.
     *  The file is rewritten whole: read, splice before the closing
     *  bracket, write a temp file beside it and rename(2) that into
     *  place, so a kill mid-write leaves the old array, never a
     *  truncated one. Bench binaries sharing one file run one at a
     *  time. */
    void
    append(const std::string &entry) const
    {
        const std::string &json = processOptions().benchJson;
        const std::string path = json.empty() ? "BENCH_campaign.json"
                                              : json;

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
        const std::string tmp =
            path + ".tmp-" + std::to_string(::getpid());
        {
            std::ofstream of(tmp, std::ios::trunc);
            of << out;
            if (!of.flush()) {
                std::remove(tmp.c_str());
                return;
            }
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0)
            std::remove(tmp.c_str());
    }

    std::string name;
    std::uint64_t totalOps;
    std::string tracePath;
    std::chrono::steady_clock::time_point start;
};

} // namespace loopsim::benchutil

#endif // LOOPSIM_BENCH_BENCH_UTIL_HH
