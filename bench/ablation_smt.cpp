// SMT policy ablation: ICOUNT vs round-robin fetch on the paper's
// multithreaded pairings, plus single-thread overhead of the SMT
// partitioning (paper section 3.1 discusses multithreaded behaviour).
#include <iostream>

#include "bench_util.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv, 100000);
    benchutil::CampaignRecorder record("ablation_smt", cli);

    FigureData fig;
    fig.title = "Ablation: SMT fetch policy (pair throughput, ICOUNT "
                "relative to round-robin)";
    fig.valueUnit = "speedup";
    fig.columns.push_back(Series{"roundrobin", {}});
    fig.columns.push_back(Series{"icount", {}});

    const std::vector<const char *> pairs = {
        "m88-comp", "go-su2cor", "apsi-swim", "swim-swim", "gcc-gcc"};

    // Enumerate both fetch policies per pairing into one plan so the
    // whole ablation runs on the campaign pool; results land by plan
    // index, so the figure is identical at any --jobs value.
    CampaignPlan plan;
    for (const char *pair : pairs) {
        for (const char *policy : {"rr", "icount"}) {
            RunSpec spec;
            spec.workload = resolveWorkload(pair);
            spec.totalOps = cli.ops;
            spec.overrides.set("core.fetch_policy", policy);
            plan.add(std::move(spec),
                     std::string(pair) + "/" + policy);
        }
    }

    std::vector<RunResult> results = runPlan(fig, plan);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        fig.rowLabels.push_back(pairs[i]);
        const RunResult &rr_res = results[i * 2];
        const RunResult &ic_res = results[i * 2 + 1];
        fig.columns[0].values.push_back(1.0);
        fig.columns[1].values.push_back(speedup(ic_res, rr_res));
    }
    if (cli.csv)
        printCsv(std::cout, fig);
    else
        printFigure(std::cout, fig);
    return 0;
}
