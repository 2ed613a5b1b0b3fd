/**
 * @file
 * Loop-discipline audit mode: the setter behind audit::enabled(), and
 * the out-of-line violation raise.
 *
 * The default comes from the LOOPSIM_AUDIT run option
 * (base/options.hh), so an audit sweep needs no reconfigure. The flag
 * is one bit of the option gate word: the campaign executor runs
 * cores on many threads, and toggles are only expected between
 * campaigns.
 */

#include "sim/feedback_port.hh"

#include "integrity/sim_error.hh"

namespace loopsim
{

void
audit::setEnabled(bool on)
{
    processOptions().audit = on;
    options::setGate(options::kAuditBit, on);
}

void
raiseDisciplineViolation(const std::string &component,
                         const std::string &kind, Cycle write_cycle,
                         Cycle loop_delay, Cycle now,
                         const std::string &context)
{
    throw DisciplineViolation(component, kind, write_cycle, loop_delay,
                              now, context);
}

} // namespace loopsim
