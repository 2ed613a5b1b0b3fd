/**
 * @file
 * SMT throughput study: the paper observes (§3.1) that multithreading
 * softens loose-loop damage — when one thread recovers from a
 * mis-speculation, the other keeps the machine busy. This example
 * quantifies that: for a set of pairings it compares each program's
 * solo IPC with the pair's combined throughput and with the loss the
 * pair suffers from a lengthened pipeline.
 *
 * Usage: smt_throughput [ops] [pairs...]
 *   e.g. smt_throughput 150000 m88-comp go-su2cor apsi-swim
 */

#include <iostream>
#include <string>
#include <vector>

#include "base/str.hh"
#include "harness/experiment.hh"
#include "workload/workload_set.hh"

#include "example_main.hh"

using namespace loopsim;

namespace
{

double
ipcOf(const Workload &w, std::uint64_t ops, unsigned dec_iq,
      unsigned iq_ex)
{
    RunSpec spec;
    spec.workload = w;
    spec.totalOps = ops;
    setPipeline(spec.overrides, dec_iq, iq_ex);
    return runOnce(spec).ipc;
}

} // anonymous namespace

int
run(int argc, char **argv)
{
    std::uint64_t ops = examples::opsArg(argc, argv, 1, 120000);
    std::vector<std::string> pairs;
    for (int i = 2; i < argc; ++i)
        pairs.push_back(argv[i]);
    if (pairs.empty())
        pairs = {"m88-comp", "go-su2cor", "apsi-swim"};

    std::cout << padRight("pair", 12) << padLeft("soloA", 8)
              << padLeft("soloB", 8) << padLeft("pair", 8)
              << padLeft("gain", 8) << padLeft("pairLoss", 10)
              << padLeft("worstLoss", 11) << "\n";

    for (const auto &label : pairs) {
        Workload pair = resolveWorkload(label);
        if (!pair.multiThreaded()) {
            std::cerr << "skipping non-pair workload " << label << "\n";
            continue;
        }
        Workload a;
        a.label = pair.threads[0].name;
        a.threads = {pair.threads[0]};
        Workload b;
        b.label = pair.threads[1].name;
        b.threads = {pair.threads[1]};

        double solo_a = ipcOf(a, ops, 5, 5);
        double solo_b = ipcOf(b, ops, 5, 5);
        double both = ipcOf(pair, ops, 5, 5);
        // The multithreading gain over running the better thread alone.
        double gain = both / std::max(solo_a, solo_b);

        // Pipeline-length sensitivity: the paper's claim is that the
        // pair's loss is smaller than the worst component's loss.
        double pair_loss = 1.0 - ipcOf(pair, ops, 9, 9) / both;
        double loss_a = 1.0 - ipcOf(a, ops, 9, 9) / solo_a;
        double loss_b = 1.0 - ipcOf(b, ops, 9, 9) / solo_b;
        double worst = std::max(loss_a, loss_b);

        std::cout << padRight(label, 12)
                  << padLeft(formatDouble(solo_a, 2), 8)
                  << padLeft(formatDouble(solo_b, 2), 8)
                  << padLeft(formatDouble(both, 2), 8)
                  << padLeft(formatDouble(gain, 2) + "x", 8)
                  << padLeft(formatPercent(pair_loss, 1), 10)
                  << padLeft(formatPercent(worst, 1), 11) << "\n";
    }
    std::cout << "\npairLoss: IPC loss of the pair when the "
                 "decode-to-execute path grows 10 -> 18 cycles;\n"
                 "worstLoss: the larger solo loss of its two programs "
                 "(paper section 3.1 expects pairLoss <= worstLoss).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(argv[0], "[ops] [pairs...]",
                                 [&] { return run(argc, argv); });
}
