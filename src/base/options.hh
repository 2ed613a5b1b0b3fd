/**
 * @file
 * Run options: every LOOPSIM_* runtime setting, read and checked in
 * one place.
 *
 * resolveOptions() turns a snapshot of the LOOPSIM_* environment into
 * one RunOptions with one grammar per kind of value (DESIGN.md §8,
 * "Run options"), and throws OptionError, naming the variable, its
 * value and the expected grammar, on anything it cannot parse,
 * including a LOOPSIM_* name it does not know. It is pure: the
 * environment is passed in.
 *
 * processOptions() is the process's copy. The first call anywhere
 * resolves it from the real environment; a bad value prints the
 * error and exits 2. The campaign executor, Simulator and Core reach
 * it on the main thread before any worker starts. The public setters
 * of each layer (setCampaignJobs, store::setStorePath, setIsolation,
 * debug::setFlags, ...) are plain writes into it, so a setter always
 * wins over the environment.
 *
 * The per-cycle gate, audit::enabled(), reads one relaxed atomic word
 * instead: one bit for audit and one that says the options are not
 * resolved yet, so a first use anywhere still resolves. The debug
 * flags need no gate: a Core reads them once, when it is built.
 */

#ifndef LOOPSIM_BASE_OPTIONS_HH
#define LOOPSIM_BASE_OPTIONS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace loopsim
{

/** Every runtime knob. The defaults are the values with nothing set. */
struct RunOptions
{
    unsigned debugFlags = 0;      ///< LOOPSIM_DEBUG: a bit per debug::Flag
    bool audit = false;           ///< LOOPSIM_AUDIT
    bool denseKernel = false;     ///< LOOPSIM_DENSE_KERNEL
    bool isolate = false;         ///< LOOPSIM_ISOLATE, --isolate
    unsigned jobs = 0;            ///< LOOPSIM_JOBS, --jobs; 0 = host width
    std::uint64_t deadlineMs = 0; ///< LOOPSIM_DEADLINE_MS; 0 = none
    std::uint64_t benchOps = 0;   ///< LOOPSIM_BENCH_OPS; 0 = the default
    std::string storePath;        ///< LOOPSIM_STORE, --store; "" = off
    std::string journalPath;      ///< LOOPSIM_JOURNAL, --journal; "" = off
    std::string tracePath;        ///< LOOPSIM_TRACE, --trace; "" = off
    bool traceCollection = false; ///< collect loop events (on with a path)
    std::string benchJson;        ///< LOOPSIM_BENCH_JSON; "" = the default
    /** LOOPSIM_OVERLAY: config assignments applied over every run's
     *  spec.overrides (setRunOverlay() replaces them). */
    std::map<std::string, std::string> overlay;
};

/** A value (or variable name) the resolver cannot accept. */
class OptionError : public std::runtime_error
{
  public:
    OptionError(const std::string &variable, const std::string &value,
                const std::string &reason);

    std::string variable; ///< e.g. "LOOPSIM_JOBS"
    std::string value;    ///< the text as given
    /** The expected grammar, what replaced a removed name, or the
     *  known names. */
    std::string reason;
};

/** LOOPSIM_* variable name -> value. */
using Environment = std::map<std::string, std::string>;

/**
 * Parse @p env into RunOptions. An empty value counts as unset.
 * Throws OptionError on the first bad value or unknown name.
 */
RunOptions resolveOptions(const Environment &env);

/** Why config key @p key was retired ("was removed: ..."), or nullptr
 *  for a live key. The one table of retired keys: resolveOptions()
 *  consults it for LOOPSIM_OVERLAY, Config::parseAssignment for every
 *  other `k=v` text. */
const char *removedKeyReason(const std::string &key);

/** The process-wide options, resolved on first use (exit 2 on error). */
RunOptions &processOptions();

/** The count grammar: the whole of @p text is one decimal unsigned
 *  integer. */
bool parseCount(const std::string &text, std::uint64_t &out);

/** Hardware threads on this host (>= 1). */
unsigned hostCpus();

/**
 * Parse a --jobs / LOOPSIM_JOBS value: a whole unsigned number
 * (capped at 1024) or "auto", which resolves to hostCpus(). @p ok is
 * false (and 0 returned) on anything else.
 */
unsigned parseJobsSpec(const std::string &spec, bool &ok);

namespace options
{

/** Gate-word bits. */
inline constexpr unsigned kAuditBit = 1u << 30;
inline constexpr unsigned kUnresolvedBit = 1u << 31;

namespace detail
{
extern std::atomic<unsigned> gateWord;
/** Resolve the process options, then test @p bit. */
bool gateAfterResolve(unsigned bit);
} // namespace detail

/** Is gate @p bit on? One relaxed load and one test once resolved. */
inline bool
gateOpen(unsigned bit)
{
    const unsigned w =
        detail::gateWord.load(std::memory_order_relaxed);
    if ((w & (bit | kUnresolvedBit)) == 0) [[likely]]
        return false;
    return (w & kUnresolvedBit) ? detail::gateAfterResolve(bit) : true;
}

/** Set or clear gate @p bits (resolving first, so a setter wins). */
void setGate(unsigned bits, bool on);

} // namespace options

} // namespace loopsim

#endif // LOOPSIM_BASE_OPTIONS_HH
