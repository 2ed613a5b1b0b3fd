/**
 * @file
 * The observation interface between a simulated component and the
 * integrity watchdog.
 *
 * The watchdog must not depend on the Core's internals (and tests must
 * be able to feed it synthetic wedges), so the component under watch
 * exposes a narrow probe: a cheap per-cycle occupancy/progress sample,
 * an on-demand structural invariant sweep, and a free-form state dump
 * for diagnostics.
 */

#ifndef LOOPSIM_INTEGRITY_PROBE_HH
#define LOOPSIM_INTEGRITY_PROBE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.hh"

namespace loopsim
{

/** One cycle's worth of progress and occupancy observations. */
struct IntegritySample
{
    Cycle cycle = 0;
    /** Retired ops since build (monotone; progress detector input). */
    std::uint64_t retired = 0;
    /** Issue events since build, the same window as `retired`
     *  (distinguishes livelock from deadlock: a machine reissuing
     *  forever shows issue churn but no retires). */
    std::uint64_t issued = 0;
    std::size_t inFlight = 0;       ///< instructions in the window
    std::size_t windowCapacity = 0; ///< in-flight limit (ROB entries)
    std::size_t iqOccupancy = 0;
    std::size_t iqCapacity = 0;
    std::size_t renamePipe = 0;     ///< DEC-IQ pipe occupancy
    std::size_t pendingEvents = 0;  ///< scheduled loop events in flight
    std::size_t frontendWork = 0;   ///< fetch buffers + replay queues
    bool done = false;              ///< component reports completion
};

/** What the watchdog is allowed to see of a watched component. */
class IntegrityProbe
{
  public:
    virtual ~IntegrityProbe() = default;

    /** Cheap per-cycle snapshot; called every watchdog tick. */
    virtual IntegritySample integritySample(Cycle now) const = 0;

    /**
     * Full structural invariant sweep (O(in-flight); debug-gated).
     * Returns one human-readable description per violated invariant,
     * empty when the structures are consistent.
     */
    virtual std::vector<std::string> structuralViolations() const = 0;

    /** Free-form state dump attached to watchdog diagnostics. */
    virtual void dumpState(std::ostream &os) const = 0;

    virtual std::string probeName() const { return "core"; }
};

} // namespace loopsim

#endif // LOOPSIM_INTEGRITY_PROBE_HH
