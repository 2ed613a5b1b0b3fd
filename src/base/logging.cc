#include "base/logging.hh"

#include <atomic>
#include <iostream>

namespace loopsim
{
namespace detail
{

namespace
{
// Read on every warn()/inform() from any campaign worker; tests flip
// it around run blocks, so it is atomic rather than a plain bool.
std::atomic<bool> quietFlag{false};

// Per-thread warn() prefix (the campaign executor's cell tag). A
// forked worker inherits the forking thread's value, so a child
// process's diagnostics stay attributable too.
thread_local std::string diagPrefix;
} // anonymous namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " @ " << file << ":" << line;
    if (!quiet())
        std::cerr << os.str() + "\n";
    throw PanicError(os.str());
}

void
fatalImpl(const std::string &msg)
{
    const std::string report = "fatal: " + msg;
    if (!quiet())
        std::cerr << report + "\n";
    throw FatalError(report);
}

void
setDiagContext(const std::string &prefix)
{
    diagPrefix = prefix;
}

const std::string &
diagContext()
{
    return diagPrefix;
}

void
untieDiagnostics()
{
    std::cerr.tie(nullptr);
}

void
warnImpl(const std::string &msg)
{
    // Single buffered insertion per message so lines from concurrent
    // campaign workers cannot interleave mid-line.
    if (!quiet())
        std::cerr << "warn: " + diagPrefix + msg + "\n";
}

void
informImpl(const std::string &msg)
{
    if (!quiet())
        std::cout << "info: " + msg + "\n" << std::flush;
}

} // namespace detail
} // namespace loopsim
