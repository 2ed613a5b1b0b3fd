/**
 * @file
 * Loose-loop length study for a single workload: sweeps the DEC-IQ and
 * IQ-EX latencies independently and prints an IPC matrix, showing how
 * performance depends not just on total pipeline length but on *which*
 * segment the stages sit in (the paper's §3 in miniature, for any
 * workload and machine overrides you pick).
 *
 * Usage: loop_length_study [workload] [ops] [k=v overrides...]
 */

#include <iostream>
#include <string>

#include "base/str.hh"
#include "harness/experiment.hh"
#include "workload/workload_set.hh"

#include "example_main.hh"

using namespace loopsim;

int
run(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "swim";
    std::uint64_t ops = examples::opsArg(argc, argv, 2, 120000);
    RunSpec base;
    base.workload = resolveWorkload(workload);
    base.totalOps = ops;
    for (int i = 3; i < argc; ++i)
        base.overrides.parseAssignment(argv[i]);
    examples::refuseUnread(checkRunConfig(base, effectiveRunConfig(base)));

    static const unsigned dec_iqs[] = {3, 5, 7, 9};
    static const unsigned iq_exs[] = {3, 5, 7, 9};

    std::cout << "IPC matrix for " << base.workload.label << " (" << ops
              << " measured ops)\nrows: DEC-IQ latency, columns: IQ-EX "
              << "latency\n\n";

    std::cout << padRight("", 8);
    for (unsigned iq_ex : iq_exs)
        std::cout << padLeft("iq_ex=" + std::to_string(iq_ex), 10);
    std::cout << "\n";

    double best = 0.0;
    double worst = 1e9;
    std::string best_label;
    std::string worst_label;
    for (unsigned dec_iq : dec_iqs) {
        std::cout << padRight("dec=" + std::to_string(dec_iq), 8);
        for (unsigned iq_ex : iq_exs) {
            RunSpec spec = base;
            setPipeline(spec.overrides, dec_iq, iq_ex);
            RunResult r = runOnce(spec);
            std::cout << padLeft(formatDouble(r.ipc, 3), 10);
            std::string label = r.pipeLabel;
            if (r.ipc > best) {
                best = r.ipc;
                best_label = label;
            }
            if (r.ipc < worst) {
                worst = r.ipc;
                worst_label = label;
            }
        }
        std::cout << "\n";
    }

    std::cout << "\nbest " << best_label << " (" << formatDouble(best, 3)
              << "), worst " << worst_label << " ("
              << formatDouble(worst, 3) << "); spread "
              << formatPercent(best / worst - 1.0, 1) << "\n";
    std::cout << "Note how moving a stage from IQ-EX to DEC-IQ (same "
                 "diagonal) recovers performance for load-loop-bound "
                 "workloads.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(argv[0], "[workload] [ops] [k=v...]",
                                 [&] { return run(argc, argv); });
}
