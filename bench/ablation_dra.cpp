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
    benchutil::print(cli, ablationCrcSize(cli.ops, w));
    benchutil::print(cli, ablationCrcRepl(cli.ops, w), ValueFormat::Percent);
    benchutil::print(cli, ablationInsertionBits(cli.ops, w),
                     ValueFormat::Percent);
    benchutil::print(cli, ablationFwdDepth(cli.ops, w));
    benchutil::print(cli, ablationCrcTimeout(cli.ops, w),
                     ValueFormat::Percent);
    return 0;
}
