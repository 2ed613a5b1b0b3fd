// SMT policy ablation: ICOUNT vs round-robin fetch on the paper's
// multithreaded pairings, plus single-thread overhead of the SMT
// partitioning (paper section 3.1 discusses multithreaded behaviour).
#include <iostream>

#include "bench_util.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv, 100000);
    benchutil::CampaignRecorder record("ablation_smt", cli);

    SweepSpec sweep{"Ablation: SMT fetch policy (pair throughput, ICOUNT "
                    "relative to round-robin)",
                    "speedup", {}, {}};
    for (const char *policy : {"rr", "icount"}) {
        Config cfg;
        cfg.set("core.fetch_policy", policy);
        sweep.cells.push_back(SweepCell{
            cfg, [policy](const Workload &pair) {
                return pair.label + "/" + policy;
            }});
    }
    sweep.columns.push_back(
        sweepColumn("roundrobin", [](SweepRow) { return 1.0; }));
    sweep.columns.push_back(sweepColumn("icount", [](SweepRow row) {
        return speedup(row[1], row[0]);
    }));

    // Each pairing is its own row label (figureLabel keeps pair names).
    std::vector<Workload> pairs;
    for (const char *pair :
         {"m88-comp", "go-su2cor", "apsi-swim", "swim-swim", "gcc-gcc"})
        pairs.push_back(resolveWorkload(pair));

    const FigureData fig = runSweep(sweep, pairs, cli.ops);
    benchutil::print(cli, fig);
    return 0;
}
