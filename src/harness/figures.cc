#include "harness/figures.hh"

#include <array>
#include <limits>

#include "base/logging.hh"
#include "harness/campaign.hh"

namespace loopsim
{

namespace
{

constexpr double failedPoint = std::numeric_limits<double>::quiet_NaN();

std::vector<Workload>
resolveAll(const std::vector<std::string> &names)
{
    std::vector<Workload> out;
    out.reserve(names.size());
    for (const auto &n : names)
        out.push_back(resolveWorkload(n));
    return out;
}

/** Operand-source fraction; a tagged NaN keeps the fail verdict. */
double
frac(const RunResult &r, std::size_t i)
{
    if (r.failed)
        return failPoint(r.failKind);
    if (i >= r.operandSourceFractions.size())
        return failedPoint;
    return r.operandSourceFractions[i];
}

/** Gap-CDF sample; a tagged NaN keeps the fail verdict. */
double
cdfAt(const RunResult &r, unsigned c)
{
    if (r.failed)
        return failPoint(r.failKind);
    if (c >= r.gapCdf.size())
        return failedPoint;
    return r.gapCdf[c];
}

/** 1.0, or the row's fail point when its reference run failed. */
double
reference(const RunResult &r)
{
    return r.failed ? failPoint(r.failKind) : 1.0;
}

/** The 7_3 DRA machine (5-cycle register file). */
Config
dra73()
{
    Config cfg;
    setDraPipeline(cfg, 5);
    return cfg;
}

/** Indices into RunResult::operandSourceFractions (preread, forward,
 *  crc, regfile, payload, miss). */
enum Source : std::size_t { PreRead = 0, Forward = 1, Crc = 2, Miss = 5 };

/** Add a cell on @p cfg and a column of its fraction of @p source. */
void
addSourceColumn(SweepSpec &sweep, const Config &cfg, std::string label,
                Source source)
{
    const std::size_t p = sweep.cells.size();
    sweep.cells.push_back(SweepCell{cfg, {}});
    sweep.columns.push_back(
        sweepColumn(std::move(label), [p, source](SweepRow row) {
            return frac(row[p], source);
        }));
}

using Points = std::array<std::pair<unsigned, unsigned>, 4>;

/**
 * Figures 4 and 5: one cell per DEC-IQ/IQ-EX point, each column the
 * speedup over the first point, headed by its pipeLabel.
 */
SweepSpec
pipelineSpeedups(std::string title, const Points &points)
{
    SweepSpec sweep{std::move(title), "speedup", {}, {}};
    for (std::size_t p = 0; p < points.size(); ++p) {
        Config cfg;
        setPipeline(cfg, points[p].first, points[p].second);
        sweep.cells.push_back(SweepCell{cfg, {}});
        sweep.columns.push_back(SweepColumn{
            [p](SweepRow first) { return first[p].pipeLabel; },
            [p](SweepRow row) { return speedup(row[p], row[0]); }});
    }
    return sweep;
}

PlanRecorder *activeRecorder = nullptr;

} // anonymous namespace

PlanRecorder::PlanRecorder()
{
    panic_if(activeRecorder, "a PlanRecorder is already recording");
    activeRecorder = this;
}

PlanRecorder::~PlanRecorder()
{
    activeRecorder = nullptr;
}

std::vector<RunResult>
runPlan(FigureData &fig, const CampaignPlan &plan)
{
    if (activeRecorder) {
        activeRecorder->recorded.push_back(plan);
        RunResult skipped;
        skipped.failed = true;
        skipped.failKind = FailKind::Sim;
        skipped.ipc = failPoint(FailKind::Sim);
        skipped.error = "not run: plan recorded";
        return std::vector<RunResult>(plan.size(), skipped);
    }
    std::vector<RunResult> results = runCampaign(plan);
    // Results land in plan order, so the failure footer reads exactly
    // as it would from a serial sweep, at any job count.
    for (const RunResult &r : results) {
        if (r.failed) {
            std::string brief = r.error.substr(0, r.error.find('\n'));
            std::string entry =
                r.workloadLabel + " [" + r.pipeLabel + "]: ";
            // Process-level verdicts read differently from in-process
            // fails: the worker died, the measurement never existed.
            if (r.failKind == FailKind::Crash ||
                r.failKind == FailKind::Timeout) {
                entry += std::string("(") + failKindName(r.failKind) +
                         ") ";
            }
            fig.failures.push_back(entry + brief);
        }
    }
    return results;
}

FigureData
runSweep(const SweepSpec &sweep, const std::vector<Workload> &rows,
         std::uint64_t total_ops)
{
    FigureData fig;
    fig.title = sweep.title;
    fig.valueUnit = sweep.valueUnit;

    CampaignPlan plan;
    for (const Workload &w : rows) {
        for (const SweepCell &c : sweep.cells)
            plan.add(w, c.overrides, total_ops, c.label ? c.label(w) : "");
    }
    const std::vector<RunResult> results = runPlan(fig, plan);

    const std::size_t width = sweep.cells.size();
    for (std::size_t wi = 0; wi < rows.size(); ++wi) {
        fig.rowLabels.push_back(figureLabel(rows[wi]));
        const SweepRow row(results.data() + wi * width, width);
        if (wi == 0) {
            for (const SweepColumn &col : sweep.columns)
                fig.columns.push_back(Series{col.label(row), {}});
        }
        for (std::size_t c = 0; c < sweep.columns.size(); ++c)
            fig.columns[c].values.push_back(sweep.columns[c].value(row));
    }
    return fig;
}

SweepColumn
sweepColumn(std::string label, std::function<double(SweepRow)> value)
{
    return SweepColumn{[label = std::move(label)](SweepRow) { return label; },
                       std::move(value)};
}

FigureData
figure4(std::uint64_t total_ops)
{
    // DEC-IQ/IQ-EX pairs summing to 6, 10, 14, 18 cycles.
    static const Points points = {{{3, 3}, {5, 5}, {7, 7}, {9, 9}}};
    SweepSpec sweep = pipelineSpeedups(
        "Figure 4: performance for varying pipeline length "
        "(speedup relative to 6 cycles decode-to-execute)",
        points);
    for (std::size_t p = 0; p < points.size(); ++p) {
        sweep.columns[p].label = [p](SweepRow first) {
            return std::to_string(points[p].first + points[p].second) +
                   " cyc (" + first[p].pipeLabel + ")";
        };
    }
    return runSweep(sweep, figureWorkloads(), total_ops);
}

FigureData
figure5(std::uint64_t total_ops)
{
    static const Points points = {{{3, 9}, {5, 7}, {7, 5}, {9, 3}}};
    return runSweep(
        pipelineSpeedups("Figure 5: performance for a fixed 12-cycle "
                         "decode-to-execute length (speedup relative "
                         "to 3_9)",
                         points),
        figureWorkloads(), total_ops);
}

FigureData
figure6(std::uint64_t total_ops, const std::vector<std::string> &workloads)
{
    // One column per cycle value on the base machine defaults, then
    // transposed so each workload's CDF reads down a column.
    SweepSpec sweep{"Figure 6: CDF of cycles between first- and second-"
                    "operand availability (base 5_5 machine)",
                    "cumulative fraction", {SweepCell{}}, {}};
    for (unsigned c = 0; c <= 64; ++c) {
        sweep.columns.push_back(
            sweepColumn(std::to_string(c),
                        [c](SweepRow row) { return cdfAt(row[0], c); }));
    }
    FigureData fig = runSweep(sweep, resolveAll(workloads), total_ops);

    std::vector<Series> by_workload;
    for (std::size_t wi = 0; wi < fig.rowLabels.size(); ++wi) {
        Series s{fig.rowLabels[wi], {}};
        for (const Series &cycle : fig.columns)
            s.values.push_back(cycle.values[wi]);
        by_workload.push_back(std::move(s));
    }
    fig.rowLabels.clear();
    for (unsigned c = 0; c <= 64; ++c)
        fig.rowLabels.push_back(std::to_string(c));
    fig.columns = std::move(by_workload);
    return fig;
}

FigureData
figure8(std::uint64_t total_ops)
{
    SweepSpec sweep{"Figure 8: DRA speedup over the base machine for "
                    "register file latencies 3, 5 and 7 cycles",
                    "speedup", {}, {}};
    for (unsigned rf : {3u, 5u, 7u}) {
        const std::size_t base = sweep.cells.size();
        Config base_cfg;
        setBasePipeline(base_cfg, rf);
        Config dra_cfg;
        setDraPipeline(dra_cfg, rf);
        sweep.cells.push_back(SweepCell{base_cfg, {}});
        sweep.cells.push_back(SweepCell{dra_cfg, {}});
        sweep.columns.push_back(SweepColumn{
            [base](SweepRow first) {
                return "DRA:" + first[base + 1].pipeLabel +
                       " vs Base:" + first[base].pipeLabel;
            },
            [base](SweepRow row) {
                return speedup(row[base + 1], row[base]);
            }});
    }
    return runSweep(sweep, figureWorkloads(), total_ops);
}

FigureData
figure9(std::uint64_t total_ops)
{
    SweepSpec sweep{"Figure 9: operand locations for the 7_3 DRA machine "
                    "(5-cycle register file)",
                    "fraction of operand reads", {SweepCell{dra73(), {}}},
                    {}};
    static const std::pair<const char *, Source> sources[] = {
        {"pre-read", PreRead}, {"fwd-buffer", Forward}, {"crc", Crc},
        {"miss", Miss}};
    for (const auto &[label, source] : sources) {
        const Source i = source;
        sweep.columns.push_back(sweepColumn(
            label, [i](SweepRow row) { return frac(row[0], i); }));
    }
    return runSweep(sweep, figureWorkloads(), total_ops);
}

FigureData
ablationCrcSize(std::uint64_t total_ops,
                const std::vector<std::string> &workloads)
{
    static const unsigned sizes[] = {4, 8, 16, 32, 64};
    constexpr std::size_t ref = 2; // the 16-entry design point

    SweepSpec sweep{"Ablation: CRC capacity (7_3 DRA; speedup relative "
                    "to the 16-entry design point)",
                    "speedup", {}, {}};
    for (std::size_t p = 0; p < std::size(sizes); ++p) {
        Config cfg = dra73();
        cfg.setUint("dra.crc.entries", sizes[p]);
        sweep.cells.push_back(SweepCell{cfg, {}});
        sweep.columns.push_back(sweepColumn(
            std::to_string(sizes[p]) + " entries",
            [p](SweepRow row) { return speedup(row[p], row[ref]); }));
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationCrcRepl(std::uint64_t total_ops,
                const std::vector<std::string> &workloads)
{
    SweepSpec sweep{"Ablation: CRC replacement policy (7_3 DRA; operand "
                    "miss rate per policy)",
                    "operand miss fraction", {}, {}};
    for (const char *policy : {"fifo", "lru"}) {
        Config cfg = dra73();
        cfg.set("dra.crc.repl", policy);
        addSourceColumn(sweep, cfg, policy, Miss);
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationInsertionBits(std::uint64_t total_ops,
                      const std::vector<std::string> &workloads)
{
    SweepSpec sweep{"Ablation: insertion-table counter width (7_3 DRA; "
                    "operand miss rate per width)",
                    "operand miss fraction", {}, {}};
    for (unsigned bits : {1u, 2u, 3u}) {
        Config cfg = dra73();
        cfg.setUint("dra.insertion_bits", bits);
        addSourceColumn(sweep, cfg, std::to_string(bits) + " bits", Miss);
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationLoadRecovery(std::uint64_t total_ops,
                     const std::vector<std::string> &workloads)
{
    SweepSpec sweep{"Ablation: load mis-speculation recovery policy (base "
                    "5_5 machine; speedup relative to reissue)",
                    "speedup", {}, {}};
    for (const char *mode : {"reissue", "refetch", "stall"}) {
        const std::size_t p = sweep.cells.size();
        Config cfg;
        cfg.set("core.load_recovery", mode);
        sweep.cells.push_back(SweepCell{cfg, {}});
        sweep.columns.push_back(sweepColumn(
            mode, [p](SweepRow row) { return speedup(row[p], row[0]); }));
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationKillShadow(std::uint64_t total_ops,
                   const std::vector<std::string> &workloads)
{
    Config tree_cfg;
    tree_cfg.setBool("core.kill_all_in_shadow", false);
    Config shadow_cfg;
    shadow_cfg.setBool("core.kill_all_in_shadow", true);
    const SweepSpec sweep{
        "Ablation: dependency-tree reissue vs 21264-style "
        "kill-all-in-shadow (base 5_5; speedup relative to "
        "tree reissue)",
        "speedup",
        {SweepCell{tree_cfg, {}}, SweepCell{shadow_cfg, {}}},
        {sweepColumn("dep-tree",
                     [](SweepRow row) { return reference(row[0]); }),
         sweepColumn("kill-shadow", [](SweepRow row) {
             return speedup(row[1], row[0]);
         })}};
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationFwdDepth(std::uint64_t total_ops,
                 const std::vector<std::string> &workloads)
{
    SweepSpec sweep{"Ablation: forwarding-buffer depth (7_3 DRA; fraction "
                    "of operands read from the forwarding buffer)",
                    "fraction of operand reads", {}, {}};
    for (unsigned depth : {5u, 7u, 9u, 13u, 17u}) {
        Config cfg = dra73();
        cfg.setUint("core.fwd_depth", depth);
        addSourceColumn(sweep, cfg, std::to_string(depth) + " cyc",
                        Forward);
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationMemDep(std::uint64_t total_ops,
               const std::vector<std::string> &workloads)
{
    Config on_cfg;
    on_cfg.setBool("core.memdep.enable", true);
    Config off_cfg;
    off_cfg.setBool("core.memdep.enable", false);
    const SweepSpec sweep{
        "Ablation: the memory trap loop (base 5_5; load/store "
        "reorder traps + wait table vs no ordering model; "
        "speedup relative to ordering on)",
        "speedup",
        {SweepCell{on_cfg, {}}, SweepCell{off_cfg, {}}},
        {sweepColumn("ordering on",
                     [](SweepRow row) { return reference(row[0]); }),
         sweepColumn("ordering off",
                     [](SweepRow row) { return speedup(row[1], row[0]); }),
         sweepColumn("traps/op", [](SweepRow row) {
             const RunResult &on = row[0];
             return on.failed ? failPoint(on.failKind)
                              : on.scalar("memOrderTraps") /
                                    static_cast<double>(on.retired);
         })}};
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
ablationCrcTimeout(std::uint64_t total_ops,
                   const std::vector<std::string> &workloads)
{
    SweepSpec sweep{"Ablation: CRC stale-entry policy (7_3 DRA; operand "
                    "miss fraction for invalidate-only vs entry timeouts)",
                    "operand miss fraction", {}, {}};
    for (std::uint64_t timeout : {0u, 256u, 64u, 16u}) {
        Config cfg = dra73();
        cfg.setUint("dra.crc.timeout", timeout);
        addSourceColumn(sweep, cfg,
                        timeout == 0 ? "invalidate"
                                     : std::to_string(timeout) + " cyc",
                        Miss);
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

FigureData
sweepConfigs(const std::string &title,
             const std::vector<std::string> &workloads,
             const std::vector<std::pair<std::string, Config>> &configs,
             std::uint64_t total_ops)
{
    fatal_if(configs.empty(), "sweepConfigs needs at least one config");

    SweepSpec sweep{title, "IPC", {}, {}};
    for (const auto &config : configs) {
        const std::size_t p = sweep.cells.size();
        const std::string &label = config.first;
        sweep.cells.push_back(SweepCell{
            config.second, [label](const Workload &) { return label; }});
        sweep.columns.push_back(sweepColumn(label, [p](SweepRow row) {
            return row[p].failed ? failPoint(row[p].failKind) : row[p].ipc;
        }));
    }
    return runSweep(sweep, resolveAll(workloads), total_ops);
}

} // namespace loopsim
