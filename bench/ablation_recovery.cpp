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
    benchutil::print(cli, ablationLoadRecovery(cli.ops, w));
    benchutil::print(cli, ablationKillShadow(cli.ops, w));
    benchutil::print(cli, ablationMemDep(cli.ops, w));
    return 0;
}
