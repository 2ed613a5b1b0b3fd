/**
 * @file
 * Quickstart: build a workload, run it on the base machine and on the
 * DRA machine, and print the headline numbers.
 *
 * Usage: quickstart [workload] [ops] [k=v config overrides...]
 *   e.g. quickstart swim 200000 dra.enable=true core.iq.entries=64
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "workload/workload_set.hh"

#include "example_main.hh"

using namespace loopsim;

int
run(int argc, char **argv)
{
    std::string workload_name = argc > 1 ? argv[1] : "swim";
    std::uint64_t ops = examples::opsArg(argc, argv, 2, 200000);

    RunSpec spec;
    spec.workload = resolveWorkload(workload_name);
    spec.totalOps = ops;
    for (int i = 3; i < argc; ++i)
        spec.overrides.parseAssignment(argv[i]);
    examples::refuseUnread(checkRunConfig(spec, effectiveRunConfig(spec)));

    std::cout << "workload: " << spec.workload.label << " ("
              << spec.workload.threads.size() << " thread(s), " << ops
              << " ops)\n\n";

    RunResult base = runOnce(spec);
    std::cout << "base machine  (" << base.pipeLabel << "):  IPC "
              << base.ipc << "  cycles " << base.cycles << "\n";

    spec.overrides.setBool("dra.enable", true);
    RunResult dra = runOnce(spec);
    std::cout << "DRA machine   (" << dra.pipeLabel << "):  IPC "
              << dra.ipc << "  cycles " << dra.cycles << "\n";

    std::cout << "\nDRA speedup: " << speedup(dra, base) << "x\n\n";

    std::cout << "base machine event counts:\n";
    for (const char *k : {"branchMispredicts", "loadMissEvents",
                          "reissued", "squashed", "tlbTraps"}) {
        std::cout << "  " << k << " = " << base.scalar(k) << "\n";
    }
    std::cout << "DRA operand sources "
              << "(preread/forward/crc/regfile/payload/miss):\n  ";
    for (double f : dra.operandSourceFractions)
        std::cout << f << " ";
    std::cout << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(argv[0], "[workload] [ops] [k=v...]",
                                 [&] { return run(argc, argv); });
}
