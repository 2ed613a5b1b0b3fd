/**
 * @file
 * Named debug-trace flags, in the spirit of gem5's DPRINTF.
 *
 * Tracing is off by default and costs one boolean test per site. Flags
 * are enabled programmatically (debug::setFlags) or via the
 * LOOPSIM_DEBUG environment variable, e.g.
 *
 *   LOOPSIM_DEBUG=Issue,Squash ./build/examples/quickstart gcc
 *
 * Each line is prefixed with the cycle and the flag name.
 */

#ifndef LOOPSIM_BASE_DEBUG_HH
#define LOOPSIM_BASE_DEBUG_HH

#include <atomic>
#include <sstream>
#include <string>

#include "base/types.hh"

namespace loopsim::debug
{

/** Trace categories; keep in sync with flagName()/parse. */
enum class Flag : unsigned
{
    Fetch,
    Rename,
    Issue,
    Exec,
    Retire,
    Squash,
    Kill,
    Dra,
    Mem,
    Pool, ///< instruction-pool slot transitions (LOOPSIM_TRACE_POOL)
    Reg,  ///< physical-register transitions (LOOPSIM_TRACE_REG)
    NumFlags
};

/** Printable name of @p flag. */
const char *flagName(Flag flag);

namespace detail
{

/**
 * The enabled flags, one bit per Flag, plus kEnvUnread until
 * LOOPSIM_DEBUG has been read (once, on first use, or never if
 * setFlags()/clearFlags() runs first). Folding the "not read yet"
 * state into the mask keeps enabled() to one load and one test.
 */
inline constexpr unsigned kEnvUnread = 1u << 31;
extern std::atomic<unsigned> flagMask;

/** Read LOOPSIM_DEBUG if nobody has yet, then test @p bit. */
bool enabledAfterEnv(unsigned bit);

} // namespace detail

/** Is @p flag enabled? Inline-cheap: one mask test. */
inline bool
enabled(Flag flag)
{
    const unsigned bit = 1u << static_cast<unsigned>(flag);
    const unsigned mask =
        detail::flagMask.load(std::memory_order_relaxed);
    if ((mask & (bit | detail::kEnvUnread)) == 0) [[likely]]
        return false;
    return (mask & detail::kEnvUnread) ? detail::enabledAfterEnv(bit)
                                       : true;
}

/** Enable a comma-separated flag list ("Issue,Squash" or "All"). */
void setFlags(const std::string &csv);

/** Disable everything. */
void clearFlags();

/** True when any flag is on (fast path guard). */
bool anyEnabled();

/** Emit one trace line (already guarded by enabled()). */
void emit(Flag flag, Cycle cycle, const std::string &message);

/** Emit a trace line with no meaningful cycle (structure-level hooks
 *  like pool/regfile transitions that fire outside stage code). */
void emit(Flag flag, const std::string &message);

/**
 * Trace macro: evaluates its message arguments only when the flag is
 * enabled.
 */
#define LTRACE(flag, cycle, ...)                                          \
    do {                                                                  \
        if (::loopsim::debug::enabled(::loopsim::debug::Flag::flag)) {    \
            std::ostringstream ltrace_os;                                 \
            ltrace_os << __VA_ARGS__;                                     \
            ::loopsim::debug::emit(::loopsim::debug::Flag::flag, cycle,   \
                                   ltrace_os.str());                      \
        }                                                                 \
    } while (false)

} // namespace loopsim::debug

#endif // LOOPSIM_BASE_DEBUG_HH
