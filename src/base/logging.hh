/**
 * @file
 * gem5-flavoured status and error reporting.
 *
 * panic()  - an internal simulator invariant was violated (a bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits.
 * warn()   - something questionable happened but simulation continues.
 * inform() - plain status output.
 *
 * Both panic() and fatal() are terminal for the process. The third
 * failure category — *this run* failed (wedged pipeline, exhausted
 * cycle budget) but the process and every other run in a sweep are
 * fine — is SimError in src/integrity/sim_error.hh, which the harness
 * catches, retries and fail-softs. See DESIGN.md §8.
 */

#ifndef LOOPSIM_BASE_LOGGING_HH
#define LOOPSIM_BASE_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace loopsim
{

/** Thrown by panic(); signals a simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(); signals a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

/** Fold a parameter pack into one message string via operator<<. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
/** A user error names no source location: the message is the report. */
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Suppress or restore warn()/inform() output (used by tests). */
void setQuiet(bool quiet);
bool quiet();

/** Thread-local diagnostic prefix prepended to every warn() line
 *  emitted by this thread ("" clears). The campaign executor tags each
 *  worker with its cell's plan-index label so interleaved stderr from
 *  parallel workers stays attributable. */
void setDiagContext(const std::string &prefix);
const std::string &diagContext();

/** Stop a diagnostic from flushing stdout before it is written (the
 *  standard streams tie stderr to stdout). A forked worker calls this
 *  where it cannot discard its copy of the parent's unwritten stdout
 *  (off glibc). */
void untieDiagnostics();

} // namespace detail

/** RAII diag-context scope: prefixes this thread's warn() lines for
 *  the lifetime of the object, restoring the previous prefix after. */
class DiagContext
{
  public:
    explicit DiagContext(std::string prefix)
        : saved(detail::diagContext())
    {
        detail::setDiagContext(std::move(prefix));
    }
    ~DiagContext() { detail::setDiagContext(saved); }
    DiagContext(const DiagContext &) = delete;
    DiagContext &operator=(const DiagContext &) = delete;

  private:
    std::string saved;
};

#define panic(...)                                                          \
    ::loopsim::detail::panicImpl(                                           \
        __FILE__, __LINE__, ::loopsim::detail::formatMessage(__VA_ARGS__))

#define fatal(...)                                                          \
    ::loopsim::detail::fatalImpl(::loopsim::detail::formatMessage(__VA_ARGS__))

#define warn(...)                                                           \
    ::loopsim::detail::warnImpl(::loopsim::detail::formatMessage(__VA_ARGS__))

#define inform(...)                                                         \
    ::loopsim::detail::informImpl(                                          \
        ::loopsim::detail::formatMessage(__VA_ARGS__))

/** panic() unless the stated invariant holds. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            panic("panic condition (" #cond ") occurred: ", __VA_ARGS__);   \
        }                                                                   \
    } while (false)

/** fatal() with the message alone when @p cond holds: a user error
 *  reads as what was wrong, not as the source text that caught it. */
#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            fatal(__VA_ARGS__);                                             \
        }                                                                   \
    } while (false)

} // namespace loopsim

#endif // LOOPSIM_BASE_LOGGING_HH
