/**
 * @file
 * Named debug-trace flags, in the spirit of gem5's DPRINTF.
 *
 * Each flag names a kind of the Core's event stream (trace/recorder.hh)
 * to print live on stderr, read when a Core is built. Flags are set
 * programmatically (debug::setFlags) or via the LOOPSIM_DEBUG run
 * option (base/options.hh), e.g.
 *
 *   LOOPSIM_DEBUG=Issue,Squash ./build/examples/quickstart gcc
 */

#ifndef LOOPSIM_BASE_DEBUG_HH
#define LOOPSIM_BASE_DEBUG_HH

#include <cstdint>
#include <string>

namespace loopsim::debug
{

/** The kinds of the Core's event stream (trace::EventKind). Every
 *  kind before NumFlags is a flag; Loop, a feedback delivery, is not. */
enum class Flag : std::uint8_t
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
    NumFlags,
    Loop = NumFlags,
};

/** Printable name of @p flag. */
const char *flagName(Flag flag);

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

} // namespace loopsim::debug

#endif // LOOPSIM_BASE_DEBUG_HH
