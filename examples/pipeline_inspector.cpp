/**
 * @file
 * Pipeline inspector: run one workload on one configuration and print
 * the core's statistics over the measured window, the memory-system
 * counters, and (when the DRA is enabled) the per-structure DRA
 * counters. The go-to tool for understanding *why* a configuration
 * performs the way it does. beginMeasurement() resets only the core's
 * statistics, so the per-thread retired counts and the memory and DRA
 * counters cover the whole run since the machine was built, warmup
 * included; the output labels them so.
 *
 * Usage: pipeline_inspector [workload] [ops] [k=v overrides...]
 * The machine is the figures' default configuration under the k=v
 * overrides and then LOOPSIM_OVERLAY, as for every other run.
 */

#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hh"
#include "harness/experiment.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
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
    const Config cfg = effectiveRunConfig(spec);
    examples::refuseUnread(checkRunConfig(spec, cfg));

    const Workload &w = spec.workload;
    std::uint64_t per_thread = (ops + spec.warmupOps) / w.threads.size();

    std::vector<std::unique_ptr<SyntheticTraceGenerator>> gens;
    std::vector<TraceSource *> sources;
    for (std::size_t t = 0; t < w.threads.size(); ++t) {
        gens.push_back(std::make_unique<SyntheticTraceGenerator>(
            w.threads[t], static_cast<ThreadId>(t), per_thread));
        sources.push_back(gens.back().get());
    }

    Core core(cfg, sources);
    Simulator sim;
    sim.add(&core);
    while (core.retiredOps() < spec.warmupOps && !core.done())
        sim.run(1024);
    core.beginMeasurement();
    sim.run(100000000);

    std::cout << "=== machine ===\n";
    core.machine().print(std::cout);

    std::cout << "\n=== results ===\n";
    std::cout << "IPC " << core.ipc() << " over " << core.cyclesRun()
              << " cycles\n";
    for (unsigned t = 0; t < core.numThreads(); ++t) {
        std::cout << "  thread " << t << " retired "
                  << core.retiredOps(static_cast<ThreadId>(t))
                  << " (since build, warmup included)\n";
    }
    std::cout << "\n";

    std::cout << "=== core statistics (measured window) ===\n";
    auto print_stat = [](const std::string &name, double value) {
        std::cout << std::left << std::setw(32) << name << value << "\n";
    };
    for (const auto &[name, stat] : core.exportedStats())
        print_stat(name, stat->value());
    const stats::Vector &operand_sources = core.operandSourceStat();
    for (std::size_t i = 0; i < operand_sources.size(); ++i) {
        // Bin i counts OperandSource i + 1 (None has no bin).
        print_stat(std::string("operandSource.") +
                       operandSourceName(static_cast<OperandSource>(i + 1)),
                   operand_sources.bin(i));
    }

    const MemoryHierarchy &mem = core.memory();
    std::cout << "\n=== memory (since build, warmup included) ===\n";
    std::cout << "l1 miss rate      " << mem.l1().missRate() << "\n"
              << "l2 miss rate      " << mem.l2().missRate() << "\n"
              << "dtlb misses       " << mem.tlb().misses() << "\n"
              << "bank conflicts    " << mem.bankConflicts() << "\n";

    if (const DraUnit *dra = core.dra()) {
        std::cout << "\n=== DRA structures (since build, warmup included) "
                     "===\n";
        std::cout << "pre-reads         " << dra->preReads() << "\n"
                  << "crc insertions    " << dra->crcInsertions() << "\n"
                  << "crc evictions     " << dra->crcEvictions() << "\n"
                  << "table saturation  " << dra->saturationDrops()
                  << "\n";
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (unsigned c = 0; c < core.machine().numClusters; ++c) {
            hits += dra->crc(static_cast<ClusterId>(c)).hits();
            misses += dra->crc(static_cast<ClusterId>(c)).misses();
        }
        std::cout << "crc lookups       " << hits + misses << " ("
                  << hits << " hits, " << misses << " misses)\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(argv[0], "[workload] [ops] [k=v...]",
                                 [&] { return run(argc, argv); });
}
