// Regenerates Figure 8 of "Loose Loops Sink Chips" (HPCA 2002).
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv);
    benchutil::CampaignRecorder record("fig8_dra_speedup", cli);
    FigureData fig = figure8(cli.ops);
    benchutil::print(cli, fig);
    return 0;
}
