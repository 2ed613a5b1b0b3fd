/**
 * @file
 * Loop anatomy: run three tiny kernels — a clean dependent chain, a
 * load that misses the L1 (the load resolution loop), and a
 * mispredicted branch (the branch resolution loop) — with the Core
 * keeping its event stream, and print what actually happened cycle by
 * cycle as the stream's Gantt view. Reissued instructions show a
 * second issue mark 'I'; the distance between 'q' (IQ insert) and 'e'
 * (execute) is the IQ-EX path this paper is about.
 */

#include <iostream>
#include <vector>

#include "core/core.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/programmed_source.hh"

using namespace loopsim;
using namespace loopsim::opbuild;

namespace
{

void
runKernel(const std::string &title, std::vector<MicroOp> ops)
{
    ProgrammedTraceSource src(std::move(ops));
    std::vector<TraceSource *> srcs{&src};
    Core core(Config{}, srcs);
    const std::vector<trace::Event> &events = core.recordEvents();
    Simulator sim;
    sim.add(&core);
    sim.run(100000);

    std::cout << "=== " << title << " ===\n";
    trace::printGantt(std::cout, events);
    std::cout << "\n";
}

} // anonymous namespace

int
main()
{
    std::cout << "legend: f fetch, r rename, q IQ insert, i issue, "
                 "I reissue, e execute, p produce, c retire\n\n";

    // 1. A dependent single-cycle chain: back-to-back issue.
    {
        std::vector<MicroOp> ops;
        ops.push_back(alu(0));
        for (int i = 0; i < 8; ++i)
            ops.push_back(alu(0, 0));
        runKernel("dependent ALU chain (tight forwarding loop)", ops);
    }

    // 2. The load resolution loop: the load L1-misses; its dependents
    // issue under hit speculation, get killed, and reissue ('I').
    {
        std::vector<MicroOp> ops;
        ops.push_back(alu(1));
        ops.push_back(storeOp(1, 1, 0x7000000)); // warm page, one line
        ops.push_back(alu(1, 1));
        for (int i = 0; i < 11; ++i)
            ops.push_back(alu(1, 1)); // hold the load behind the store
        ops.push_back(load(2, 1, 0x7000000 + 512)); // same page, cold line
        ops.push_back(alu(3, 2)); // speculated consumer -> reissue
        ops.push_back(alu(4, 3));
        runKernel("load resolution loop (L1 miss, reissue recovery)",
                  ops);
    }

    // 3. The branch resolution loop: a mispredict squashes the wrong
    // path and restarts fetch ~a pipeline later (gap between rows).
    {
        std::vector<MicroOp> ops;
        ops.push_back(alu(0));
        ops.push_back(branch(0, true, /*mispredict=*/true));
        for (int i = 0; i < 6; ++i)
            ops.push_back(alu(static_cast<ArchReg>(1 + i)));
        runKernel("branch resolution loop (mispredict, refetch)", ops);
    }
    return 0;
}
