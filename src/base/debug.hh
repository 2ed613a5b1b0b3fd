/**
 * @file
 * Named debug-trace flags, in the spirit of gem5's DPRINTF.
 *
 * Tracing is off by default and costs one bit test per site. Flags
 * are enabled programmatically (debug::setFlags) or via the
 * LOOPSIM_DEBUG run option (base/options.hh), e.g.
 *
 *   LOOPSIM_DEBUG=Issue,Squash ./build/examples/quickstart gcc
 *
 * Each line is prefixed with the cycle and the flag name.
 */

#ifndef LOOPSIM_BASE_DEBUG_HH
#define LOOPSIM_BASE_DEBUG_HH

#include <sstream>
#include <string>

#include "base/options.hh"
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
    Pool, ///< instruction-pool slot transitions
    Reg,  ///< physical-register transitions
    NumFlags
};

/** Printable name of @p flag. */
const char *flagName(Flag flag);

/** Is @p flag enabled? Inline-cheap: one relaxed load, one test. */
inline bool
enabled(Flag flag)
{
    return options::gateOpen(1u << static_cast<unsigned>(flag));
}

/**
 * The flag bits named by @p csv ("Issue,Squash" or "All", any case).
 * The first unknown name lands in @p bad (empty when all are known).
 */
unsigned parseFlags(const std::string &csv, std::string &bad);

/** The names of the flags set in @p bits, comma-separated. */
std::string flagsText(unsigned bits);

/** Enable a comma-separated flag list ("Issue,Squash" or "All");
 *  fatal() on an unknown name. */
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
