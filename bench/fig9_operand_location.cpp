// Regenerates Figure 9: operand-location breakdown under the DRA.
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv);
    benchutil::CampaignRecorder record("fig9_operand_location", cli);
    FigureData fig = figure9(cli.ops);
    benchutil::print(cli, fig);
    return 0;
}
