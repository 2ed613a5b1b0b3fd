/**
 * @file
 * Typed feedback ports: the machine-checked loop discipline.
 *
 * The paper's central methodological rule (§6, inherited from ASIM) is
 * that no stage may act on global knowledge: a feedback signal — a
 * branch resolution, a load hit/miss outcome, a DRA operand miss —
 * becomes visible to its initiation stage only after the configured
 * loop delay. The simulation kernel cannot enforce this (it guarantees
 * only a monotonic cycle count), so the discipline is made structural
 * here instead:
 *
 *  - the *writer* stamps every message with the cycle the outcome was
 *    produced and the loop delay it declared (`send()`), and
 *  - the *reader* unwraps the message through `read(now)`, which in
 *    normal runs is an inline unwrap and in audit mode (the
 *    LOOPSIM_AUDIT run option or audit::setEnabled()) verifies
 *    `now >= write_cycle + loop_delay`, raising a structured
 *    DisciplineViolation (integrity/sim_error.hh) naming the
 *    component, the signal kind, how many cycles early the read was,
 *    and the offending instruction's timeline.
 *
 * A refactor that shrinks a loop — delivering a resolution to fetch or
 * issue a cycle before the feedback path could physically carry it —
 * therefore fails an audit run instead of silently inflating IPC.
 * tools/loop_lint.py statically rejects feedback-event scheduling that
 * bypasses a port (see the `loop:exempt` annotation policy there).
 */

#ifndef LOOPSIM_SIM_FEEDBACK_PORT_HH
#define LOOPSIM_SIM_FEEDBACK_PORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/options.hh"
#include "base/types.hh"

namespace loopsim
{

namespace audit
{

/** Is loop-discipline auditing on? One relaxed atomic load. */
inline bool
enabled()
{
    return options::gateOpen(options::kAuditBit);
}

/** Force audit mode on/off (tests, harness); overrides LOOPSIM_AUDIT. */
void setEnabled(bool on);

/** RAII toggle for test scopes. */
class Scoped
{
  public:
    explicit Scoped(bool on) : previous(enabled()) { setEnabled(on); }
    ~Scoped() { setEnabled(previous); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    bool previous;
};

} // namespace audit

/**
 * Raise a DisciplineViolation for a read @p now of a signal written at
 * @p write_cycle with declared loop delay @p loop_delay. Out of line so
 * the template read path stays small; @p context is the offending
 * instruction's timeline (may be empty).
 */
[[noreturn]] void raiseDisciplineViolation(const std::string &component,
                                           const std::string &kind,
                                           Cycle write_cycle,
                                           Cycle loop_delay, Cycle now,
                                           const std::string &context);

/**
 * One in-flight feedback message: a payload plus the write stamp the
 * audit check verifies against.
 */
template <typename T>
struct DelayedSignal
{
    T value{};
    Cycle writeCycle = invalidCycle; ///< when the outcome was produced
    Cycle loopDelay = 0;             ///< declared feedback-loop length

    /** First cycle the initiation stage may legally observe this. */
    Cycle visibleAt() const { return writeCycle + loopDelay; }
};

/**
 * A typed, named feedback path between a producing stage and the stage
 * that initiated the speculation. Writers obtain a signal id from
 * send(); readers exchange the id for the payload with read(now).
 * Signals in flight at destruction simply vanish with the port (a
 * squashed speculation whose feedback never needed delivery).
 */
template <typename T>
class FeedbackPort
{
  public:
    /**
     * @param component_name the reading stage ("core.fetch", ...)
     * @param kind_name      the signal kind ("branch-resolution", ...)
     */
    FeedbackPort(std::string component_name, std::string kind_name)
        : componentName(std::move(component_name)),
          kindName(std::move(kind_name))
    {}

    /**
     * Writer side: stamp @p value with @p write_cycle and the declared
     * @p loop_delay and put it in flight.
     * @return the id the reader redeems.
     */
    std::uint64_t
    send(Cycle write_cycle, Cycle loop_delay, T value)
    {
        std::uint64_t id = ++lastId;
        pending.push_back(
            {id, DelayedSignal<T>{std::move(value), write_cycle,
                                  loop_delay}});
        ++sentCount;
        return id;
    }

    /**
     * Reader side: unwrap signal @p id at cycle @p now, keeping the
     * write stamp. The trace layer uses this form so every loop-event
     * row carries the full geometry (write cycle, declared loop delay,
     * consume cycle). In audit mode the loop discipline is verified
     * first; @p context() is evaluated only on a violation and should
     * describe the offending instruction's timeline.
     */
    template <typename ContextFn>
    DelayedSignal<T>
    readStamped(std::uint64_t id, Cycle now, ContextFn &&context)
    {
        DelayedSignal<T> sig = take(id);
        if (audit::enabled() && now < sig.visibleAt()) [[unlikely]] {
            raiseDisciplineViolation(componentName, kindName,
                                     sig.writeCycle, sig.loopDelay, now,
                                     context());
        }
        ++deliveredCount;
        return sig;
    }

    DelayedSignal<T>
    readStamped(std::uint64_t id, Cycle now)
    {
        return readStamped(id, now, [] { return std::string(); });
    }

    /** Reader side, payload only: the common non-traced unwrap. */
    template <typename ContextFn>
    T
    read(std::uint64_t id, Cycle now, ContextFn &&context)
    {
        return std::move(
            readStamped(id, now, std::forward<ContextFn>(context))
                .value);
    }

    T
    read(std::uint64_t id, Cycle now)
    {
        return read(id, now, [] { return std::string(); });
    }

    /** @name Introspection (tests, audit reports) */
    /// @{
    const std::string &component() const { return componentName; }
    const std::string &kind() const { return kindName; }
    std::size_t inFlight() const { return pending.size(); }
    std::uint64_t sent() const { return sentCount; }
    std::uint64_t delivered() const { return deliveredCount; }
    /// @}

  private:
    DelayedSignal<T>
    take(std::uint64_t id)
    {
        // The in-flight set is tiny (bounded by outstanding
        // mis-speculations), so a linear scan beats hashing.
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].first != id)
                continue;
            DelayedSignal<T> sig = std::move(pending[i].second);
            pending[i] = std::move(pending.back());
            pending.pop_back();
            return sig;
        }
        panic("feedback port ", componentName, "/", kindName,
              ": reading unknown signal id ", id);
    }

    std::string componentName;
    std::string kindName;
    std::vector<std::pair<std::uint64_t, DelayedSignal<T>>> pending;
    std::uint64_t lastId = 0;
    std::uint64_t sentCount = 0;
    std::uint64_t deliveredCount = 0;
};

} // namespace loopsim

#endif // LOOPSIM_SIM_FEEDBACK_PORT_HH
