/**
 * @file
 * Helpers for driving the Core with hand-written kernels in tests.
 */

#ifndef LOOPSIM_TESTS_CORE_TEST_UTIL_HH
#define LOOPSIM_TESTS_CORE_TEST_UTIL_HH

#include <memory>
#include <string>
#include <vector>

#include "core/core.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/programmed_source.hh"

namespace loopsim::testutil
{

/** Exported statistic @p name; an unknown name fails the test. */
inline double
exportedStat(const Core &core, const std::string &name)
{
    for (const auto &[stat_name, stat] : core.exportedStats()) {
        if (name == stat_name)
            return stat->value();
    }
    fatal("unknown exported statistic: ", name);
}

/** A core plus everything needed to keep it alive and run it. */
struct CoreHarness
{
    std::vector<std::unique_ptr<ProgrammedTraceSource>> sources;
    std::unique_ptr<Core> core;
    Simulator sim;

    /** Run to completion; panics on livelock. */
    void
    run(Cycle max_cycles = 200000)
    {
        sim.add(core.get());
        sim.run(max_cycles);
        panic_if(sim.hitCycleLimit(), "test core run hit cycle limit");
        core->checkQuiescent();
    }

    double stat(const std::string &name) const
    {
        return exportedStat(*core, name);
    }
};

/** Build a single-thread harness from a kernel and config overrides. */
inline CoreHarness
makeHarness(std::vector<MicroOp> ops, const Config &cfg = Config{})
{
    CoreHarness h;
    h.sources.push_back(
        std::make_unique<ProgrammedTraceSource>(std::move(ops)));
    std::vector<TraceSource *> srcs{h.sources[0].get()};
    h.core = std::make_unique<Core>(cfg, srcs);
    return h;
}

/** Build a two-thread harness. */
inline CoreHarness
makeSmtHarness(std::vector<MicroOp> t0, std::vector<MicroOp> t1,
               const Config &cfg = Config{})
{
    CoreHarness h;
    h.sources.push_back(
        std::make_unique<ProgrammedTraceSource>(std::move(t0)));
    h.sources.push_back(
        std::make_unique<ProgrammedTraceSource>(std::move(t1)));
    std::vector<TraceSource *> srcs{h.sources[0].get(),
                                    h.sources[1].get()};
    h.core = std::make_unique<Core>(cfg, srcs);
    return h;
}

} // namespace loopsim::testutil

#endif // LOOPSIM_TESTS_CORE_TEST_UTIL_HH
