/**
 * @file
 * Recoverable simulation errors.
 *
 * The logging taxonomy (base/logging.hh) distinguishes panic() — a
 * simulator bug — from fatal() — an impossible user request. Both are
 * terminal. SimError is the third category: *this run* failed (wedged
 * pipeline, exhausted cycle budget, tripped watchdog), but the process
 * and every other run in a sweep are fine. The harness catches
 * SimError and fail-softs the point into the figure report instead of
 * aborting the whole regeneration. It does not retry: the simulator
 * is deterministic, so the same run fails the same way again.
 */

#ifndef LOOPSIM_INTEGRITY_SIM_ERROR_HH
#define LOOPSIM_INTEGRITY_SIM_ERROR_HH

#include <sstream>
#include <stdexcept>
#include <string>

#include "base/types.hh"

namespace loopsim
{

/** A single simulation run failed; the process can continue. */
class SimError : public std::runtime_error
{
  public:
    SimError(std::string kind, const std::string &msg)
        : std::runtime_error(msg), errorKind(std::move(kind))
    {}

    /** Machine-readable category ("cycle-limit", "watchdog", ...). */
    const std::string &kind() const { return errorKind; }

  private:
    std::string errorKind;
};

/** The run exhausted its cycle budget without draining. */
class CycleLimitError : public SimError
{
  public:
    CycleLimitError(std::string run_phase, Cycle limit,
                    const std::string &msg, std::string state_dump)
        : SimError("cycle-limit", msg), phaseName(std::move(run_phase)),
          cycleLimit(limit), dump(std::move(state_dump))
    {}

    /** "warmup" or "measure". */
    const std::string &phase() const { return phaseName; }
    Cycle limit() const { return cycleLimit; }
    /** Pipeline state at the moment the budget ran out. */
    const std::string &stateDump() const { return dump; }

  private:
    std::string phaseName;
    Cycle cycleLimit;
    std::string dump;
};

/**
 * The loop discipline was broken: a stage observed a feedback signal
 * (branch resolution, load hit/miss, DRA operand miss) before the
 * declared loop delay had elapsed — a decision based on global
 * knowledge, which the paper's methodology forbids (§6). Raised by
 * FeedbackPort::read() in audit builds (sim/feedback_port.hh).
 */
class DisciplineViolation : public SimError
{
  public:
    /**
     * @param component_name the reading stage ("core.fetch", ...)
     * @param signal_kind    "branch-resolution", "load-resolution",
     *                       "dra-operand-miss", ...
     * @param write_cycle    when the outcome was produced
     * @param loop_delay     the declared feedback-loop length
     * @param read_cycle     when the stage observed it
     * @param inst_timeline  the offending instruction's timeline (may
     *                       be empty when no instruction is live)
     */
    DisciplineViolation(std::string component_name,
                        std::string signal_kind, Cycle write_cycle,
                        Cycle loop_delay, Cycle read_cycle,
                        std::string inst_timeline)
        : SimError("loop-discipline",
                   formatMessage(component_name, signal_kind,
                                 write_cycle, loop_delay, read_cycle,
                                 inst_timeline)),
          componentName(std::move(component_name)),
          signalKindName(std::move(signal_kind)),
          writtenAt(write_cycle), delay(loop_delay), readAt(read_cycle),
          timelineDump(std::move(inst_timeline))
    {}

    const std::string &component() const { return componentName; }
    const std::string &signalKind() const { return signalKindName; }
    Cycle writeCycle() const { return writtenAt; }
    Cycle loopDelay() const { return delay; }
    Cycle readCycle() const { return readAt; }
    /** How many cycles before legal visibility the read happened. */
    Cycle cyclesEarly() const { return writtenAt + delay - readAt; }
    /** Timeline of the offending instruction (empty if unavailable). */
    const std::string &timeline() const { return timelineDump; }

  private:
    static std::string
    formatMessage(const std::string &component, const std::string &kind,
                  Cycle write_cycle, Cycle loop_delay, Cycle read_cycle,
                  const std::string &timeline)
    {
        std::ostringstream os;
        os << "loop-discipline violation: " << component << " read "
           << kind << " signal " << (write_cycle + loop_delay - read_cycle)
           << " cycle(s) early (written at cycle " << write_cycle
           << ", loop delay " << loop_delay << ", visible at cycle "
           << write_cycle + loop_delay << ", read at cycle "
           << read_cycle << ")";
        if (!timeline.empty())
            os << "\n  offending instruction: " << timeline;
        return os.str();
    }

    std::string componentName;
    std::string signalKindName;
    Cycle writtenAt;
    Cycle delay;
    Cycle readAt;
    std::string timelineDump;
};

} // namespace loopsim

#endif // LOOPSIM_INTEGRITY_SIM_ERROR_HH
