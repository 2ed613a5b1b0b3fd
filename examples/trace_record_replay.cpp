/**
 * @file
 * Trace tooling demo: record a synthetic workload to a trace file,
 * replay it through the core, and confirm the replay is cycle-exact
 * with the live-generated run. This is the workflow for users who want
 * to bring their own traces: anything that writes the loopsim trace
 * format can drive the core.
 *
 * Usage: trace_record_replay [workload] [ops] [path]
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/core.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/trace_file.hh"
#include "workload/workload_set.hh"

#include "example_main.hh"

using namespace loopsim;

namespace
{

Cycle
runWith(TraceSource &src)
{
    Config cfg;
    std::vector<TraceSource *> srcs{&src};
    Core core(cfg, srcs);
    Simulator sim;
    sim.add(&core);
    sim.run(100000000);
    return core.cyclesRun();
}

} // anonymous namespace

int
run(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "gcc";
    std::uint64_t ops = examples::opsArg(argc, argv, 2, 50000);
    std::string path = argc > 3 ? argv[3] : "/tmp/loopsim_demo.ltrc";

    Workload w = resolveWorkload(workload);
    if (w.multiThreaded()) {
        std::cerr << "this demo replays single-thread traces\n";
        return 1;
    }

    // 1. Record.
    {
        SyntheticTraceGenerator gen(w.threads[0], 0, ops);
        TraceWriter writer(path);
        MicroOp op;
        while (gen.next(op))
            writer.append(op);
        writer.finish();
        std::cout << "recorded " << writer.written() << " ops to "
                  << path << "\n";
    }

    // 2. Run live vs replayed.
    SyntheticTraceGenerator live(w.threads[0], 0, ops);
    Cycle live_cycles = runWith(live);

    TraceReader replay(path);
    Cycle replay_cycles = runWith(replay);

    std::cout << "live generator: " << live_cycles << " cycles\n"
              << "trace replay:   " << replay_cycles << " cycles\n";
    if (live_cycles == replay_cycles) {
        std::cout << "replay is cycle-exact.\n";
    } else {
        std::cout << "NOTE: cycle counts differ; correct-path streams "
                     "match but wrong-path filler differs between the "
                     "generator (profile-shaped) and the reader "
                     "(generic), which perturbs timing slightly.\n";
    }
    std::remove(path.c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    return examples::guardedMain(argv[0], "[workload] [ops] [path]",
                                 [&] { return run(argc, argv); });
}
