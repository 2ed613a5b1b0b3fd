// Load mis-speculation recovery ablations (paper section 2.2.2):
// reissue vs refetch vs stall, and dependence-tree vs shadow kills.
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv, 100000);
    benchutil::CampaignRecorder record("ablation_recovery", cli);
    auto w = benchutil::ablationWorkloads();
    printFigure(std::cout, ablationLoadRecovery(cli.ops, w));
    printFigure(std::cout, ablationKillShadow(cli.ops, w));
    printFigure(std::cout, ablationMemDep(cli.ops, w));
    return 0;
}
