#include "figures.hh"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/report.hh"
#include "store/fingerprint.hh"

namespace loopbench
{

using namespace loopsim;

namespace
{

/** Operand-source fraction as harness/figures.cc renders it. */
double
frac(const RunResult &r, std::size_t i)
{
    if (r.failed)
        return failPoint(r.failKind);
    if (i >= r.operandSourceFractions.size())
        return std::numeric_limits<double>::quiet_NaN();
    return r.operandSourceFractions[i];
}

using Points = std::vector<std::pair<unsigned, unsigned>>;

/** Figures 4 and 5: one X_Y pipeline per column, relative to the first. */
FigurePlan
pipelineSweep(const std::string &name, const std::vector<Workload> &ws,
              std::uint64_t ops, const Points &points, bool cycle_labels)
{
    FigurePlan fp;
    fp.name = name;
    for (const Workload &w : ws) {
        for (const auto &[dec_iq, iq_ex] : points) {
            Config cfg;
            setPipeline(cfg, dec_iq, iq_ex);
            fp.plan.add(w, cfg, ops);
        }
    }
    fp.assemble = [ws, points, cycle_labels](
                      const std::vector<RunResult> &results) {
        const std::size_t n = points.size();
        FigureData fig;
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            fig.rowLabels.push_back(figureLabel(ws[wi]));
            const RunResult &baseline = results[wi * n];
            for (std::size_t p = 0; p < n; ++p) {
                const RunResult &r = results[wi * n + p];
                if (fig.columns.size() <= p) {
                    std::string label = r.pipeLabel;
                    if (cycle_labels) {
                        label = std::to_string(points[p].first +
                                               points[p].second) +
                                " cyc (" + r.pipeLabel + ")";
                    }
                    fig.columns.push_back(Series{label, {}});
                }
                fig.columns[p].values.push_back(speedup(r, baseline));
            }
        }
        return fig;
    };
    return fp;
}

FigurePlan
draSpeedup(const std::vector<Workload> &ws, std::uint64_t ops)
{
    static const unsigned rf_latencies[] = {3, 5, 7};
    constexpr std::size_t n = std::size(rf_latencies);
    FigurePlan fp;
    fp.name = "fig8";
    for (const Workload &w : ws) {
        for (unsigned rf : rf_latencies) {
            Config base_cfg;
            setBasePipeline(base_cfg, rf);
            fp.plan.add(w, base_cfg, ops);
            Config dra_cfg;
            setDraPipeline(dra_cfg, rf);
            fp.plan.add(w, dra_cfg, ops);
        }
    }
    fp.assemble = [ws](const std::vector<RunResult> &results) {
        FigureData fig;
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            fig.rowLabels.push_back(figureLabel(ws[wi]));
            for (std::size_t p = 0; p < n; ++p) {
                const RunResult &base = results[(wi * n + p) * 2];
                const RunResult &dra = results[(wi * n + p) * 2 + 1];
                if (fig.columns.size() <= p) {
                    fig.columns.push_back(Series{
                        "DRA:" + dra.pipeLabel + " vs Base:" +
                            base.pipeLabel,
                        {}});
                }
                fig.columns[p].values.push_back(speedup(dra, base));
            }
        }
        return fig;
    };
    return fp;
}

FigurePlan
operandLocations(const std::vector<Workload> &ws, std::uint64_t ops)
{
    FigurePlan fp;
    fp.name = "fig9";
    for (const Workload &w : ws) {
        Config cfg;
        setDraPipeline(cfg, 5);
        fp.plan.add(w, cfg, ops);
    }
    fp.assemble = [ws](const std::vector<RunResult> &results) {
        FigureData fig;
        for (const char *l : {"pre-read", "fwd-buffer", "crc", "miss"})
            fig.columns.push_back(Series{l, {}});
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            fig.rowLabels.push_back(figureLabel(ws[wi]));
            // operandSourceFractions order:
            // preread, forward, crc, regfile, payload, miss
            fig.columns[0].values.push_back(frac(results[wi], 0));
            fig.columns[1].values.push_back(frac(results[wi], 1));
            fig.columns[2].values.push_back(frac(results[wi], 2));
            fig.columns[3].values.push_back(frac(results[wi], 5));
        }
        return fig;
    };
    return fp;
}

} // anonymous namespace

std::vector<Workload>
seededWorkloads(std::uint64_t seed)
{
    std::vector<Workload> ws = figureWorkloads();
    for (Workload &w : ws) {
        for (BenchmarkProfile &t : w.threads)
            t.seed += seed;
    }
    return ws;
}

FigurePlan
makeFigurePlan(const std::string &name, const std::vector<Workload> &ws,
               std::uint64_t ops)
{
    if (name == "fig4")
        return pipelineSweep(name, ws, ops, {{3, 3}, {5, 5}, {7, 7}, {9, 9}},
                             true);
    if (name == "fig5")
        return pipelineSweep(name, ws, ops, {{3, 9}, {5, 7}, {7, 5}, {9, 3}},
                             false);
    if (name == "fig8")
        return draSpeedup(ws, ops);
    if (name == "fig9")
        return operandLocations(ws, ops);
    throw std::invalid_argument("unknown figure " + name);
}

std::string
figureCsv(const FigureData &fig)
{
    std::ostringstream os;
    printCsv(os, fig);
    return os.str();
}

std::string
digestOf(const std::string &text)
{
    store::Hasher h;
    h.bytes(text.data(), text.size());
    return h.digest().hex();
}

std::string
figureDigest(const FigurePlan &plan, const std::vector<RunResult> &results)
{
    return digestOf(figureCsv(plan.assemble(results)));
}

} // namespace loopbench
