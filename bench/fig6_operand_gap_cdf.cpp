// Regenerates Figure 6: CDF of cycles between operand availability.
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv);
    benchutil::CampaignRecorder record("fig6_operand_gap_cdf", cli);
    // The paper plots turb3d and notes other benchmarks look similar;
    // print a second benchmark to substantiate that claim.
    FigureData fig = figure6(cli.ops, {"turb3d", "swim"});
    benchutil::print(cli, fig);
    return 0;
}
