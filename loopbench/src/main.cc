/**
 * @file
 * loopbench: time-to-figure for loopsim's figure campaigns.
 *
 *   loopbench --workload W --seed N --seconds S --trace 0|1 --work DIR
 *             [--goldens FILE]
 *   loopbench --digests --seed N --work DIR
 *   loopbench --library-digests --work DIR
 *
 * The first form runs one workload (fig5_cold, fig8_isolated or
 * warm_replay) for S seconds and prints, as its last stdout line, one
 * JSON object {correct, attempted, failed, metrics}: the end-to-end
 * metrics untraced (--trace 0) or the per-layer metrics of the traced
 * run (--trace 1). README.md defines every metric. --digests prints
 * the figure digests for seed N (how goldens.txt is recorded);
 * --library-digests prints seed 0's digests as the library's own
 * figure4()..figure9() produce them, for the self-test.
 *
 * The seed offsets every BenchmarkProfile::seed and changes nothing
 * else. All load comes from this process: at most min(4, nproc)
 * campaign workers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "figures.hh"
#include "harness/campaign.hh"
#include "harness/supervisor.hh"
#include "sim/simulator.hh"
#include "store/journal.hh"
#include "store/result_store.hh"
#include "traced.hh"

namespace fs = std::filesystem;
using namespace loopsim;
using namespace loopbench;

namespace
{

/** Measured correct-path ops per cell; each cell also runs
 *  RunSpec::warmupOps of warmup. */
constexpr std::uint64_t kOpsPerCell = 20000;
constexpr unsigned kMaxWorkers = 4;
/** Repetitions a run makes even when --seconds is shorter. */
constexpr int kMinReps = 3;
/** Set-ups are timed in batches this long, back to back, one batch
 *  before the first timed repetition and then at most one per
 *  kSetupEvery seconds; setup_s is their interquartile mean. The
 *  batches sample the whole run, and a batch's shape does not depend on
 *  how long a repetition takes. */
constexpr int kSetupBatch = 7;
constexpr double kSetupEvery = 1.0;
/** Cells the supervisor probe runs both in-process and forked. */
constexpr std::size_t kProbeCells = 4;

const char *const kUsage =
    "usage: loopbench --workload fig5_cold|fig8_isolated|warm_replay\n"
    "                 --seed N --seconds S --trace 0|1 --work DIR\n"
    "                 [--goldens FILE]\n"
    "       loopbench --digests --seed N --work DIR\n"
    "       loopbench --library-digests --work DIR\n";

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "loopbench: " << why << "\n" << kUsage;
    std::exit(2);
}

struct Options
{
    enum class Mode { Run, Digests, LibraryDigests } mode = Mode::Run;
    std::string workload;
    std::optional<std::uint64_t> seed;
    std::optional<std::uint64_t> seconds;
    std::optional<std::uint64_t> trace;
    std::string work;
    std::string goldens;
};

/** A whole decimal number, nothing else; usage error otherwise. */
std::uint64_t
parseCount(const std::string &flag, const std::string &text,
           std::uint64_t max)
{
    if (text.empty() || text.size() > 20 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a whole number, got '" + text + "'");
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        usage(flag + " out of range: " + text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (!seen.insert(flag).second)
            usage("repeated flag " + flag);
        if (flag == "--digests") {
            o.mode = Options::Mode::Digests;
            continue;
        }
        if (flag == "--library-digests") {
            o.mode = Options::Mode::LibraryDigests;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" && flag != "--work" &&
            flag != "--goldens")
            usage("unknown argument '" + flag + "'");
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (value != "fig5_cold" && value != "fig8_isolated" &&
                value != "warm_replay")
                usage("unknown workload '" + value + "'");
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = parseCount(flag, value, UINT32_MAX);
        } else if (flag == "--seconds") {
            o.seconds = parseCount(flag, value, 3600);
            if (*o.seconds == 0)
                usage("--seconds must be at least 1");
        } else if (flag == "--trace") {
            o.trace = parseCount(flag, value, 1);
        } else if (flag == "--work") {
            if (value.empty())
                usage("--work needs a directory");
            o.work = value;
        } else {
            o.goldens = value;
        }
    }
    if (o.work.empty())
        usage("--work is required");
    switch (o.mode) {
      case Options::Mode::Run:
        if (o.workload.empty() || !o.seed || !o.seconds || !o.trace)
            usage("--workload, --seed, --seconds and --trace are required");
        break;
      case Options::Mode::Digests:
        if (!o.seed || !o.workload.empty() || o.seconds || o.trace)
            usage("--digests takes --seed and --work only");
        break;
      case Options::Mode::LibraryDigests:
        if (o.seed || !o.workload.empty() || o.seconds || o.trace)
            usage("--library-digests takes --work only");
        break;
    }
    return o;
}

/** Golden figure digests by (seed, figure), from goldens.txt. */
using Goldens = std::map<std::pair<std::uint64_t, std::string>, std::string>;

Goldens
loadGoldens(const std::string &path)
{
    Goldens g;
    if (path.empty())
        return g;
    std::ifstream in(path);
    if (!in)
        usage("cannot read goldens file " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::uint64_t seed = 0;
        std::string fig, digest;
        if (!(ls >> seed >> fig >> digest) || digest.size() != 32) {
            std::cerr << "loopbench: malformed goldens line: " << line
                      << "\n";
            std::exit(2);
        }
        g[{seed, fig}] = digest;
    }
    return g;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[leaf * 4],
                        &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                        &regs[leaf * 4 + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

double
since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Mean of the middle half of @p v. A shared host can flip between a
 * fast and a slow state every few seconds, which makes per-sample
 * times bimodal: a median then jumps between the two states with
 * their share of the run, while this moves smoothly with it and still
 * drops outliers.
 */
double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / static_cast<double>(hi - lo);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
peakRssMb()
{
    struct rusage self = {}, children = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The figures each workload's campaigns produce, in run order. */
std::vector<std::string>
figuresOf(const std::string &workload)
{
    if (workload == "fig5_cold")
        return {"fig5"};
    if (workload == "fig8_isolated")
        return {"fig8"};
    return {"fig4", "fig5", "fig8", "fig9"};
}

/** Simulated ops of one cell, warmup included. */
double
opsPerCell()
{
    return static_cast<double>(kOpsPerCell + RunSpec{}.warmupOps);
}

/** One repetition's set-up: plans built and the store opened. */
struct Setup
{
    std::vector<FigurePlan> figs;
    std::string journalDir;
};

/**
 * Resolve the seeded workloads, build the plans, and open the store in
 * @p dir. The journal directory is configured per campaign by the
 * caller.
 */
Setup
setUp(std::uint64_t seed, const std::vector<std::string> &figs,
      const std::string &dir)
{
    Setup s;
    const std::vector<Workload> ws = seededWorkloads(seed);
    for (const std::string &f : figs)
        s.figs.push_back(makeFigurePlan(f, ws, kOpsPerCell));
    store::resetProcessStore();
    store::setStorePath(dir + "/store");
    store::processStore();
    s.journalDir = dir + "/journal";
    return s;
}

/** Digest bookkeeping: every figure a run assembles must match. */
class DigestGate
{
  public:
    DigestGate(const Goldens &known, std::uint64_t run_seed)
        : goldens(known), seed(run_seed)
    {}

    /** Check @p digest of figure @p fig produced by @p where. */
    void
    check(const std::string &fig, const std::string &digest,
          const char *where)
    {
        auto g = goldens.find({seed, fig});
        std::string &expect = expected[fig];
        if (expect.empty())
            expect = g != goldens.end() ? g->second : digest;
        if (g == goldens.end())
            unchecked.insert(fig);
        if (digest != expect) {
            std::cerr << "loopbench: " << fig << " digest " << digest
                      << " from " << where << " != expected " << expect
                      << (g != goldens.end() ? " (golden)" : " (first run)")
                      << "\n";
            ok = false;
        }
    }

    bool ok = true;
    std::map<std::string, std::string> expected;
    std::set<std::string> unchecked;

  private:
    const Goldens &goldens;
    std::uint64_t seed;
};

/** Totals every campaign of a run adds to. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const std::vector<RunResult> &results)
    {
        attempted += results.size();
        for (const RunResult &r : results)
            failed += r.failed ? 1 : 0;
    }
};

/** State shared by every repetition of one run. */
struct Bench
{
    Bench(const Options &opts, unsigned workers, const Goldens &goldens)
        : o(opts), jobs(workers), dir(opts.work + "/campaign"),
          gate(goldens, *opts.seed),
          isolate(opts.workload == "fig8_isolated"),
          warm(opts.workload == "warm_replay")
    {}

    Options o;
    unsigned jobs;
    std::string dir;
    DigestGate gate;
    Tally tally;
    /** fig8_isolated: cells fork through the supervisor. */
    bool isolate;
    /** warm_replay: repetitions replay a store filled once. */
    bool warm;
    /** Seconds of every timed set-up, and of every timed untraced
     *  repetition's campaigns. */
    std::vector<double> setups;
    std::vector<double> walls;

    /**
     * After a repetition: drop the memo, and unless @p keep empty the
     * store and journal directories (which stay, so the next set-up
     * opens an existing empty store rather than timing a mkdir).
     */
    void
    endRep(bool keep) const
    {
        store::resetProcessStore();
        if (keep)
            return;
        for (const char *sub : {"/store", "/journal"}) {
            std::error_code ec;
            std::vector<fs::path> entries;
            for (const fs::directory_entry &e :
                 fs::directory_iterator(dir + sub, ec))
                entries.push_back(e.path());
            for (const fs::path &e : entries)
                fs::remove_all(e, ec);
        }
    }

    /** The journal applies to fig8_isolated's plan and warm_replay's
     *  fig8 (the plan that resumes). */
    void
    configureJournal(const Setup &s, const FigurePlan &fig) const
    {
        store::setJournalPath(o.workload != "fig5_cold" && fig.name == "fig8"
                                  ? s.journalDir
                                  : "");
    }
};

/** One untraced repetition's measurements. */
struct Rep
{
    double wall = 0.0;
    std::size_t cells = 0;
    std::size_t simulated = 0;
};

/**
 * One untraced repetition: set up, then runCampaign() per figure. The
 * store and journal are emptied afterwards unless @p keep.
 */
Rep
untracedRep(Bench &b, bool keep)
{
    Rep rep;
    const Setup s = setUp(*b.o.seed, figuresOf(b.o.workload), b.dir);
    setIsolation(b.isolate);
    for (const FigurePlan &fig : s.figs) {
        b.configureJournal(s, fig);
        const Clock::time_point c0 = Clock::now();
        const std::vector<RunResult> results =
            runCampaign(fig.plan, {}, b.jobs);
        rep.wall += since(c0);
        rep.cells += results.size();
        rep.simulated += lastCampaignTelemetry().simulated;
        b.tally.add(results);
        b.gate.check(fig.name, figureDigest(fig, results), "runCampaign");
    }
    setIsolation(false);
    b.endRep(keep);
    b.walls.push_back(rep.wall);
    return rep;
}

/** One traced pass over the workload's figures. */
struct TracedPass
{
    std::map<std::string, double> metrics;
    std::vector<Reconciliation> rec;
    double wall = 0.0;
    /** The first figure's plan and results (for the journal probe). */
    CampaignPlan plan;
    std::vector<RunResult> results;
};

TracedPass
tracedPass(Bench &b, bool keep, bool isolate, bool time_generators)
{
    const Setup s = setUp(*b.o.seed, figuresOf(b.o.workload), b.dir);
    PassTrace pass;
    std::vector<const CampaignPlan *> plans;
    TracedPass tp;
    for (const FigurePlan &fig : s.figs) {
        b.configureJournal(s, fig);
        const std::vector<RunResult> &results =
            runTracedCampaign(fig.plan, b.jobs, isolate, pass);
        b.tally.add(results);
        b.gate.check(fig.name, figureDigest(fig, results),
                     isolate ? "traced isolated pass" : "traced pass");
        plans.push_back(&fig.plan);
    }
    b.endRep(keep);
    tp.metrics = summarizePass(pass, tp.rec);
    tp.wall = tp.metrics["trace.wall_s"];
    tp.plan = s.figs.front().plan;
    tp.results = pass.campaigns.front().results;
    if (time_generators) {
        std::uint64_t ops = 0;
        const double secs = timeGenerators(pass, plans, ops);
        tp.metrics["workload.gen_s"] = secs;
        tp.metrics["workload.gen_mops_per_s"] =
            secs > 0.0 ? static_cast<double>(ops) / secs / 1e6 : 0.0;
    }
    return tp;
}

/** Metrics of the layers inside a simulated cell. */
bool
isCellLayer(const std::string &name)
{
    for (const char *p : {"sim.", "core.", "mem.", "dra.", "workload."})
        if (name.rfind(p, 0) == 0)
            return true;
    return false;
}

/** Metrics that are model counts: identical on every traced pass. */
bool
isModelCount(const std::string &name)
{
    return isCellLayer(name) && name != "core.setup_s" &&
           name.rfind("sim.", 0) != 0 && name.rfind("workload.", 0) != 0;
}

/** warm_replay's passes simulate nothing and append nothing: these come
 *  from its traced fill instead. */
bool
isFillOnly(const std::string &name)
{
    static const std::set<std::string> fill = {
        "harness.cell_s_p50",   "harness.cell_s_p80",
        "harness.worker_busy_frac", "harness.worker_idle_s",
        "harness.claim_wait_s", "store.insert_us_p50",
        "store.inserts",        "store.bytes_written",
        "journal.append_ms_p50", "journal.appends"};
    return isCellLayer(name) || fill.count(name);
}

/** Every per-layer metric the traced run reports, with its unit. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"harness.cell_s_p50", "s"},
        {"harness.cell_s_p80", "s"},
        {"harness.resolve_s", "s"},
        {"harness.worker_busy_frac", "frac"},
        {"harness.worker_idle_s", "s"},
        {"harness.claim_wait_s", "s"},
        {"sim.warmup_s", "s"},
        {"sim.measure_s", "s"},
        {"sim.ticks", "count"},
        {"sim.ticks_per_cycle", "ratio"},
        {"sim.scan_ticks", "count"},
        {"core.setup_s", "s"},
        {"core.cycles", "count"},
        {"core.ipc", "ops/cycle"},
        {"core.issued_per_retired", "ratio"},
        {"core.reissued", "count"},
        {"core.squashed", "count"},
        {"core.wrong_path_frac", "frac"},
        {"core.load_killed_ops", "count"},
        {"core.branch_loop_open_frac", "frac"},
        {"core.load_loop_open_frac", "frac"},
        {"core.operand_loop_open_frac", "frac"},
        {"core.recovery_stall_cycles", "count"},
        {"mem.load_miss_events", "count"},
        {"mem.tlb_traps", "count"},
        {"mem.order_traps", "count"},
        {"dra.operand_miss_events", "count"},
        {"dra.preread_frac", "frac"},
        {"dra.fwd_frac", "frac"},
        {"dra.crc_frac", "frac"},
        {"dra.miss_frac", "frac"},
        {"workload.gen_s", "s"},
        {"workload.gen_mops_per_s", "Mop/s"},
        {"store.fingerprint_us_p50", "us"},
        {"store.lookup_us_p50", "us"},
        {"store.hits", "count"},
        {"store.memo_hits", "count"},
        {"store.bytes_read", "bytes"},
        {"store.insert_us_p50", "us"},
        {"store.inserts", "count"},
        {"store.bytes_written", "bytes"},
        {"journal.append_ms_p50", "ms"},
        {"journal.appends", "count"},
        {"journal.replay_s", "s"},
        {"journal.replayed", "count"},
        {"supervisor.overhead_ms_per_cell", "ms"},
        {"supervisor.isolated_runs", "count"},
        {"supervisor.spawn_retries", "count"},
        {"trace.overhead_frac", "frac"},
        {"trace.unattributed_frac", "frac"},
    };
    return m;
}

/** Median of every metric over passes. */
std::map<std::string, double>
medianOver(const std::vector<TracedPass> &passes)
{
    std::map<std::string, std::vector<double>> all;
    for (const TracedPass &p : passes)
        for (const auto &[k, v] : p.metrics)
            all[k].push_back(v);
    std::map<std::string, double> out;
    for (const auto &[k, v] : all)
        out[k] = median(v);
    return out;
}

/**
 * Reconciliation of @p set, summed over all its passes: false when its
 * cell spans, or all its parent spans together, leave more than
 * kReconcileTolerance of their time unattributed. The sum is over the
 * whole run, not per pass: a warm pass lasts milliseconds, so a single
 * preemption between two child spans would push that one pass over.
 * @p frac receives the unattributed share of all parent spans.
 */
bool
reconciles(const std::vector<TracedPass> &set, const char *what,
           double &frac)
{
    std::map<std::string, Reconciliation> byParent;
    double seconds = 0.0, unattributed = 0.0;
    for (const TracedPass &p : set) {
        for (const Reconciliation &r : p.rec) {
            Reconciliation &sum = byParent[r.parent];
            sum.seconds += r.seconds;
            sum.unattributed += r.unattributed;
            seconds += r.seconds;
            unattributed += r.unattributed;
        }
    }
    bool ok = true;
    for (const auto &[parent, r] : byParent) {
        const double gap = r.seconds > 0 ? r.unattributed / r.seconds : 0;
        std::cerr << "loopbench: " << what << ": " << parent << " spans "
                  << r.seconds << " s, unattributed " << gap * 100 << "%\n";
        if (parent == "harness.cell" && gap > kReconcileTolerance)
            ok = false;
    }
    frac = seconds > 0 ? unattributed / seconds : 0.0;
    return ok && frac <= kReconcileTolerance;
}

/** True when every model count is the same on every pass of @p set. */
bool
modelCountsRepeat(const std::vector<TracedPass> &set)
{
    for (const TracedPass &p : set) {
        for (const auto &[name, v] : p.metrics) {
            if (isModelCount(name) && v != set.front().metrics.at(name)) {
                std::cerr << "loopbench: model count " << name
                          << " differs between traced passes\n";
                return false;
            }
        }
    }
    return true;
}

void
printResult(bool correct, const Tally &tally,
            const std::vector<std::pair<std::string, std::string>> &names,
            const std::map<std::string, double> &values)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        os << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
           << jsonNumber(values.at(name)) << ", \"unit\": "
           << jsonString(unit) << "}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
runDigests(const Options &o, unsigned jobs, bool library)
{
    const std::uint64_t seed = library ? 0 : *o.seed;
    setUp(seed, {}, o.work + "/digests");
    store::setJournalPath("");
    const std::vector<Workload> ws = seededWorkloads(seed);
    for (const std::string &name : figuresOf("warm_replay")) {
        std::string csv;
        if (library) {
            setCampaignJobs(jobs);
            const FigureData fig = name == "fig4"   ? figure4(kOpsPerCell)
                                   : name == "fig5" ? figure5(kOpsPerCell)
                                   : name == "fig8" ? figure8(kOpsPerCell)
                                                    : figure9(kOpsPerCell);
            csv = figureCsv(fig);
        } else {
            const FigurePlan fig = makeFigurePlan(name, ws, kOpsPerCell);
            csv = figureCsv(fig.assemble(runCampaign(fig.plan, {}, jobs)));
        }
        std::cout << seed << " " << name << " " << digestOf(csv)
                  << std::endl;
    }
    fs::remove_all(o.work + "/digests");
    return 0;
}

/**
 * One untimed cold repetition, so that timed ones do not pay the
 * process's first-touch costs (page faults, allocator growth, cold
 * caches). Its figures are checked like every other. warm_replay's
 * fill plays this part for its passes.
 */
void
warmUp(Bench &b)
{
    if (!b.warm)
        untracedRep(b, false);
}

/** One batch of kSetupBatch timed set-ups, into b.setups. */
void
timeSetUps(Bench &b)
{
    for (int k = 0; k < kSetupBatch; ++k) {
        const Clock::time_point t0 = Clock::now();
        setUp(*b.o.seed, figuresOf(b.o.workload), b.dir);
        b.setups.push_back(since(t0));
        b.endRep(b.warm);
    }
}

/** The untraced run: every end-to-end metric. */
std::map<std::string, double>
untracedRun(Bench &b)
{
    warmUp(b);
    // warm_replay's fill: a cold Fig 4+5+8+9 campaign that writes the
    // store and fig8's journal. Its simulated ops/s is the workload's
    // sim_ops_per_s; the timed passes then only read.
    double fillOpsPerS = 0.0;
    if (b.warm) {
        const Rep fill = untracedRep(b, true);
        fillOpsPerS = static_cast<double>(fill.simulated) * opsPerCell() /
                      fill.wall;
    }
    b.walls.clear();

    double cells = 0.0, simulated = 0.0;
    const Clock::time_point start = Clock::now();
    Clock::time_point lastBatch = start;
    for (int i = 0; i < kMinReps || since(start) < *b.o.seconds; ++i) {
        if (i == 0 || since(lastBatch) >= kSetupEvery) {
            timeSetUps(b);
            lastBatch = Clock::now();
        }
        const Rep r = untracedRep(b, b.warm);
        cells += static_cast<double>(r.cells);
        simulated += static_cast<double>(r.simulated);
    }
    // With no golden for this seed, fig8_isolated is still held to the
    // in-process campaign of the same plan.
    if (b.isolate && b.gate.unchecked.count("fig8")) {
        const Setup s = setUp(*b.o.seed, {"fig8"}, b.dir);
        store::setJournalPath("");
        const std::vector<RunResult> results =
            runCampaign(s.figs[0].plan, {}, b.jobs);
        b.tally.add(results);
        b.gate.check("fig8", figureDigest(s.figs[0], results), "in-process");
    }

    // Whole-run rates (work over time), not per-repetition medians:
    // see interquartileMean() for why.
    const double wall = sum(b.walls);
    std::map<std::string, double> v;
    v["setup_s"] = interquartileMean(b.setups);
    v["campaign_wall_s"] = wall / static_cast<double>(b.walls.size());
    v["cells_per_s"] = cells / wall;
    v["sim_ops_per_s"] =
        b.warm ? fillOpsPerS : simulated * opsPerCell() / wall;
    v["peak_rss_mb"] = peakRssMb();
    return v;
}

/** The traced run: every per-layer metric; @p ok turns false when a
 *  check on the trace itself fails. */
std::map<std::string, double>
tracedRun(Bench &b, bool &ok)
{
    warmUp(b);
    // warm_replay's fill is traced: its cells are the only simulation,
    // journal appends and store inserts the workload does.
    std::vector<TracedPass> fill;
    if (b.warm)
        fill.push_back(tracedPass(b, true, false, true));
    b.walls.clear();

    std::vector<TracedPass> passes;
    std::vector<TracedPass> inProcess; // fig8_isolated's cell layers
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kMinReps || since(start) < *b.o.seconds; ++i) {
        untracedRep(b, b.warm);
        passes.push_back(tracedPass(b, b.warm, b.isolate,
                                    passes.empty() && !b.isolate && !b.warm));
        // Isolated cells tick in a forked child the benchmark cannot
        // see into; an in-process pass of the same plan supplies the
        // cell layers and must assemble the same figure.
        if (b.isolate)
            inProcess.push_back(tracedPass(b, false, false, inProcess.empty()));
        if (i + 1 >= 2 && since(start) >= *b.o.seconds)
            break;
    }

    std::map<std::string, double> v = medianOver(passes);
    const std::vector<TracedPass> &cells =
        b.warm ? fill : b.isolate ? inProcess : passes;
    const std::map<std::string, double> cellMedian = medianOver(cells);
    for (const auto &[name, unit] : perLayerMetrics()) {
        if (b.warm ? isFillOnly(name) : isCellLayer(name))
            v[name] = cellMedian.count(name) ? cellMedian.at(name) : 0.0;
    }
    double unattributed = 0.0, other = 0.0;
    ok = modelCountsRepeat(cells) &&
         reconciles(passes, "traced passes", unattributed) &&
         reconciles(inProcess, "in-process passes", other) &&
         reconciles(fill, "fill", other);
    v["trace.unattributed_frac"] = unattributed;

    double traced = 0.0;
    for (const TracedPass &p : passes)
        traced += p.wall;
    // One traced pass per untraced repetition.
    v["trace.overhead_frac"] = traced / sum(b.walls) - 1.0;

    // Probes for layers a workload's own campaigns do not run: the
    // supervisor on every workload (only fig8_isolated forks), the
    // journal on fig5_cold (the only one without one).
    const std::vector<TracedPass> &first = b.warm ? fill : passes;
    v["supervisor.overhead_ms_per_cell"] =
        supervisorOverheadMs(first.front().plan, kProbeCells);
    if (!b.warm && !b.isolate) {
        PassTrace probe;
        std::vector<Reconciliation> unused;
        if (!journalProbe(first.front().plan, first.front().results,
                          b.dir + "/probe-journal", probe)) {
            std::cerr << "loopbench: journal probe did not replay\n";
            ok = false;
        }
        fs::remove_all(b.dir);
        const std::map<std::string, double> pm =
            summarizePass(probe, unused);
        v["journal.append_ms_p50"] = pm.at("journal.append_ms_p50");
        v["journal.replay_s"] = pm.at("journal.replay_s");
    }
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const Goldens goldens = loadGoldens(o.goldens);
    const unsigned jobs = std::min(kMaxWorkers, hostCpus());
    std::error_code ec;
    fs::create_directories(o.work, ec);
    if (ec)
        usage("cannot create work directory " + o.work);
    if (o.mode != Options::Mode::Run)
        return runDigests(o, jobs,
                          o.mode == Options::Mode::LibraryDigests);
    if (o.workload == "fig8_isolated" && !isolationSupported()) {
        std::cerr << "loopbench: fig8_isolated needs fork()\n";
        return 2;
    }

    const bool traced = *o.trace == 1;
    Bench b(o, jobs, goldens);

    bool traceOk = true;
    std::map<std::string, double> values =
        traced ? tracedRun(b, traceOk) : untracedRun(b);
    fs::remove_all(b.dir);

    bool correct = b.gate.ok && traceOk;
    if (!correct)
        b.tally.failed = b.tally.attempted;
    std::vector<std::pair<std::string, std::string>> names;
    if (traced) {
        names = perLayerMetrics();
    } else {
        names = {{"setup_s", "s"},       {"campaign_wall_s", "s"},
                 {"cells_per_s", "1/s"}, {"sim_ops_per_s", "1/s"},
                 {"peak_rss_mb", "MB"},  {"ok_cell_frac", "frac"}};
        values["ok_cell_frac"] =
            1.0 - static_cast<double>(b.tally.failed) /
                      static_cast<double>(b.tally.attempted);
    }
    for (const auto &[name, unit] : names) {
        double &v = values[name];
        if (!std::isfinite(v)) {
            std::cerr << "loopbench: " << name << " is not finite\n";
            v = 0.0;
            correct = false;
        }
    }

    std::ostringstream ctx;
    ctx << "{\"context\": {\"workload\": " << jsonString(o.workload)
        << ", \"seed\": " << *o.seed << ", \"trace\": " << *o.trace
        << ", \"nproc\": " << hostCpus()
        << ", \"cpu_model\": " << jsonString(cpuModel())
        << ", \"workers\": " << jobs << ", \"ops_per_cell\": " << kOpsPerCell
        << ", \"warmup_ops_per_cell\": " << RunSpec{}.warmupOps
        << ", \"kernel\": \""
        << (defaultKernelMode() == KernelMode::Dense ? "dense" : "sparse")
        << "\", \"setups\": " << b.setups.size()
        << ", \"repetitions\": " << b.walls.size() << ", \"digests\": {";
    bool first = true;
    for (const auto &[fig, digest] : b.gate.expected) {
        ctx << (first ? "" : ", ") << jsonString(fig) << ": "
            << jsonString(digest);
        first = false;
    }
    ctx << "}, \"golden_checked\": "
        << (b.gate.unchecked.empty() ? "true" : "false") << "}}";
    std::cout << ctx.str() << std::endl;
    if (!b.gate.unchecked.empty()) {
        std::cerr << "loopbench: no golden digests for seed " << *o.seed
                  << "; figures checked for consistency within the run only\n";
    }
    printResult(correct, b.tally, names, values);
    return correct ? 0 : 1;
}
