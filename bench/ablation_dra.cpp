// DRA design-space ablations (DESIGN.md section 5): CRC capacity and
// replacement, insertion-table width, forwarding-buffer depth.
#include <iostream>

#include "bench_util.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    const auto cli = benchutil::parseCli(argc, argv, 100000);
    benchutil::CampaignRecorder record("ablation_dra", cli);
    auto w = benchutil::ablationWorkloads();
    printFigure(std::cout, ablationCrcSize(cli.ops, w));
    printFigure(std::cout, ablationCrcRepl(cli.ops, w), ValueFormat::Percent);
    printFigure(std::cout, ablationInsertionBits(cli.ops, w),
                ValueFormat::Percent);
    printFigure(std::cout, ablationFwdDepth(cli.ops, w));
    printFigure(std::cout, ablationCrcTimeout(cli.ops, w),
                ValueFormat::Percent);
    return 0;
}
