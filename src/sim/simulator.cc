#include "sim/simulator.hh"

#include <chrono>

#include "base/logging.hh"
#include "base/options.hh"
#include "integrity/sim_error.hh"

namespace loopsim
{

KernelMode
defaultKernelMode()
{
    return processOptions().denseKernel ? KernelMode::Dense
                                        : KernelMode::Sparse;
}

void
setDefaultKernelMode(KernelMode mode)
{
    processOptions().denseKernel = mode == KernelMode::Dense;
}

void
Simulator::add(Clocked *component)
{
    panic_if(!component, "registering a null component");
    components.push_back(component);
    doneFlags.push_back(0);
    tickCounts.push_back(0);
    tickMeasured.push_back(0);
    tickSeconds.push_back(0.0);
}

void
Simulator::enableProfiling(bool on)
{
    profiling = on;
}

void
Simulator::setProfilingStride(unsigned stride)
{
    panic_if(stride == 0, "profiling stride must be >= 1");
    profileStride = stride;
}

std::vector<ComponentProfile>
Simulator::profile() const
{
    // Split the exactly timed run() seconds by each component's share
    // of the sampled tick time, so the rows add up to the kernel's
    // measured time, wheel bookkeeping included. The first profiled
    // wheel iteration is always sampled.
    double sampled = 0.0;
    for (const double s : tickSeconds)
        sampled += s;
    std::vector<ComponentProfile> out;
    out.reserve(components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
        const double share = sampled > 0.0 ? tickSeconds[i] / sampled
                                           : 0.0;
        out.push_back({components[i]->name(), tickCounts[i],
                       tickMeasured[i], runSeconds * share,
                       components[i]->fullScanTicks(),
                       components[i]->kernelCounters()});
    }
    return out;
}

void
Simulator::tickAll()
{
    for (std::size_t i = 0; i < components.size(); ++i) {
        components[i]->tick(currentCycle);
        ++tickCounts[i];
    }
}

void
Simulator::tickAllTimed()
{
    // Host wall-clock only: the measurements describe the simulator
    // itself and never reach the simulated machine.
    using clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < components.size(); ++i) {
        // loop:exempt(analyze: kernel self-profiling, host time never feeds simulated time)
        const clock::time_point begin = clock::now();
        components[i]->tick(currentCycle);
        // loop:exempt(analyze: kernel self-profiling, host time never feeds simulated time)
        const clock::time_point end = clock::now();
        tickSeconds[i] +=
            std::chrono::duration<double>(end - begin).count();
        ++tickCounts[i];
        ++tickMeasured[i];
    }
}

Cycle
Simulator::run(Cycle max_cycles)
{
    panic_if(components.empty(), "Simulator::run with no components");
    // A zero budget used to return 0 with hitCycleLimit() == false —
    // indistinguishable from a successful drain. Make it a structured,
    // recoverable error instead of a silent no-op.
    if (max_cycles == 0) {
        throw SimError("invalid-budget",
                       "Simulator::run with a zero cycle budget: no "
                       "component can make progress, but the run would "
                       "report hitCycleLimit() == false");
    }
    using clock = std::chrono::steady_clock;
    clock::time_point begin;
    if (profiling) {
        // loop:exempt(analyze: kernel self-profiling, host time never feeds simulated time)
        begin = clock::now();
    }
    // Let components shed (or arm) their sparse-only tick machinery
    // before the first cycle of this run.
    for (Clocked *c : components)
        c->prepareKernel(mode);
    const Cycle ran = mode == KernelMode::Dense ? runDense(max_cycles)
                                                : runSparse(max_cycles);
    if (profiling) {
        // loop:exempt(analyze: kernel self-profiling, host time never feeds simulated time)
        runSeconds += std::chrono::duration<double>(clock::now() - begin)
                          .count();
    }
    return ran;
}

Cycle
Simulator::runDense(Cycle max_cycles)
{
    // The reference kernel: tick every component every cycle. Kept
    // compilable (and selectable at runtime) so the sparse kernel can
    // be differentially tested against it — see tests/ -L kernel.
    Cycle start = currentCycle;
    cycleLimited = false;

    const std::size_t count = components.size();
    while (currentCycle - start < max_cycles) {
        // All-done check with early exit: stop scanning at the first
        // component that still has work. Components finish roughly in
        // registration order (front-end drains last), so this usually
        // inspects one element instead of all of them.
        std::size_t busy = 0;
        while (busy < count && components[busy]->done())
            ++busy;
        if (busy == count)
            return currentCycle - start;

        if (profiling && profileCursor++ % profileStride == 0)
            tickAllTimed();
        else
            tickAll();
        ++currentCycle;
    }
    cycleLimited = true;
    return currentCycle - start;
}

Cycle
Simulator::runSparse(Cycle max_cycles)
{
    Cycle start = currentCycle;
    cycleLimited = false;

    const std::size_t count = components.size();
    const Cycle end = start + max_cycles;

    // Seed the cached done() flags once; afterwards a component's flag
    // is refreshed only when it ticks (nothing else can change it), so
    // the per-iteration scan touches no component state.
    for (std::size_t i = 0; i < count; ++i)
        doneFlags[i] = components[i]->done() ? 1 : 0;

    while (currentCycle < end) {
        std::size_t busy = 0;
        while (busy < count && doneFlags[busy])
            ++busy;
        if (busy == count)
            return currentCycle - start;

        // The wheel: jump straight to the earliest declared activity.
        // Clamped to the last budget cycle so every component gets a
        // final tick there and closes its span accounting before the
        // budget expires (dense ticks that cycle too).
        Cycle next = invalidCycle;
        for (const Clocked *c : components) {
            Cycle at = c->nextActivity(currentCycle);
            if (at < next)
                next = at;
        }
        if (next < currentCycle)
            next = currentCycle;
        if (next >= end)
            next = end - 1;
        currentCycle = next;

        // Tick every component at the chosen cycle, not only the one
        // that scheduled it: a tick at a cycle with no work is a no-op
        // up to span accounting (the Clocked contract), and observers
        // such as the watchdog see exactly the cycles at which state
        // can change.
        if (profiling && profileCursor++ % profileStride == 0)
            tickAllTimed();
        else
            tickAll();
        for (std::size_t i = 0; i < count; ++i)
            doneFlags[i] = components[i]->done() ? 1 : 0;
        ++currentCycle;
    }
    cycleLimited = true;
    return currentCycle - start;
}

} // namespace loopsim
