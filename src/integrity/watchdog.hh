/**
 * @file
 * Livelock/deadlock watchdog for simulated components.
 *
 * The watchdog is a Clocked component registered with the Simulator
 * alongside the Core. Every cycle it samples the watched probe; if the
 * component stops retiring for a configurable window while still
 * holding work, the watchdog assembles a structured diagnostic — a
 * coarse timeline of the last samples, per-stage occupancies, a
 * culprit heuristic naming the stalled structure, and the probe's own
 * state dump — and throws WatchdogError. Optionally (debug-gated, off
 * by default) it also sweeps the probe's structural invariants every
 * few cycles and trips on the first violation.
 */

#ifndef LOOPSIM_INTEGRITY_WATCHDOG_HH
#define LOOPSIM_INTEGRITY_WATCHDOG_HH

#include <deque>
#include <string>
#include <vector>

#include "integrity/probe.hh"
#include "integrity/sim_error.hh"
#include "sim/simulator.hh"

namespace loopsim
{

class Config;

/** Tunables; read from "integrity.*" keys by fromConfig(). */
struct WatchdogConfig
{
    /** Cycles without a retire (while work remains) before the run is
     *  declared wedged. Must be generous: a legitimate SMT run can sit
     *  behind back-to-back memory misses for hundreds of cycles. */
    Cycle window = 100000;
    /** Number of timeline samples kept for the diagnostic dump. */
    unsigned historyDepth = 64;
    /** Run structuralViolations() sweeps (debug-gated fast path:
     *  disabled costs one branch per cycle). */
    bool structuralChecks = false;
    /** Cycles between structural sweeps when enabled. */
    Cycle checkInterval = 64;

    /** integrity.watchdog.window / .history, integrity.checks.enable /
     *  .interval. */
    static WatchdogConfig fromConfig(const Config &cfg);
};

/** Everything known about a wedge at the moment it was declared. */
struct WatchdogReport
{
    std::string component;
    Cycle now = 0;
    /** Cycle of the last observed retire (start of the stall). */
    Cycle lastProgressCycle = 0;
    /** The configured no-progress window that expired. */
    Cycle window = 0;
    /** Heuristic naming the stalled structure. */
    std::string culprit;
    /** Structural invariant violations (empty for pure stalls). */
    std::vector<std::string> violations;
    /** Coarse occupancy/progress timeline, oldest first. */
    std::vector<IntegritySample> timeline;
    /** The probe's free-form state dump. */
    std::string stateDump;

    /** Render the full multi-line diagnostic. */
    std::string format() const;
};

/** Thrown by the watchdog; carries the structured diagnostic. */
class WatchdogError : public SimError
{
  public:
    explicit WatchdogError(WatchdogReport r)
        : SimError("watchdog", r.format()), rep(std::move(r))
    {}

    const WatchdogReport &report() const { return rep; }

  private:
    WatchdogReport rep;
};

class InvariantWatchdog : public Clocked
{
  public:
    InvariantWatchdog(const IntegrityProbe &probe,
                      const WatchdogConfig &cfg);

    /** Samples, checks progress and (optionally) invariants; throws
     *  WatchdogError on a wedge or violation. */
    void tick(Cycle now) override;

    /** The watchdog never holds the simulation open. */
    bool done() const override { return true; }

    /**
     * Sparse-kernel schedule. Progress (a retire-count change) can
     * only happen at cycles where the watched core ticks — and the
     * wheel ticks every component at every wheel cycle, so those are
     * observed for free. What the watchdog itself must schedule are
     * its time-driven actions: the next timeline sample (multiples of
     * sampleEvery), the next structural sweep (multiples of
     * checkInterval, when enabled), and the no-progress deadline at
     * lastProgress + window, where a wedged run throws exactly as the
     * dense kernel would.
     */
    Cycle nextActivity(Cycle now) const override;

    std::string name() const override { return "watchdog"; }

    Cycle lastProgressCycle() const { return lastProgress; }
    const WatchdogConfig &config() const { return cfg; }

    /** Build (without throwing) the report for the current state. */
    WatchdogReport buildReport(Cycle now,
                               std::vector<std::string> violations) const;

  private:
    /** Name the structure most plausibly responsible for the stall. */
    static std::string analyzeCulprit(const IntegritySample &s);

    const IntegrityProbe &probe;
    WatchdogConfig cfg;
    Cycle sampleEvery = 1;
    std::uint64_t lastRetired = 0;
    Cycle lastProgress = 0;
    bool sawSample = false;
    std::deque<IntegritySample> timeline;
};

} // namespace loopsim

#endif // LOOPSIM_INTEGRITY_WATCHDOG_HH
