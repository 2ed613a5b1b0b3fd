#include "base/debug.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>

#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim::debug
{

namespace detail
{

std::atomic<unsigned> flagMask{kEnvUnread};

} // namespace detail

namespace
{

// Campaign workers query the mask every traced cycle, inline
// (debug.hh); all mutation (env parse, explicit setFlags/clearFlags)
// serialises on one mutex. The flag set is install-then-read:
// installers run before the sweep, workers only load.
std::mutex &
flagMutex()
{
    static std::mutex m;
    return m;
}

constexpr unsigned allMask =
    (1u << static_cast<unsigned>(Flag::NumFlags)) - 1;
static_assert((allMask & detail::kEnvUnread) == 0,
              "debug flags overlap the env-unread bit");

void
parseEnvOnce()
{
    if (!(detail::flagMask.load(std::memory_order_acquire) &
          detail::kEnvUnread))
        return;
    std::lock_guard<std::mutex> lock(flagMutex());
    if (!(detail::flagMask.load(std::memory_order_relaxed) &
          detail::kEnvUnread))
        return;
    // Guarded by flagMutex and only ever read, never set, by us.
    const char *env = std::getenv("LOOPSIM_DEBUG"); // NOLINT(concurrency-mt-unsafe)
    // setFlags marks the environment read itself (before parsing, so
    // a bad LOOPSIM_DEBUG is reported once, not on every query).
    if (env)
        setFlags(env);
    else
        detail::flagMask.fetch_and(~detail::kEnvUnread,
                                   std::memory_order_release);
}

} // anonymous namespace

const char *
flagName(Flag flag)
{
    switch (flag) {
      case Flag::Fetch: return "Fetch";
      case Flag::Rename: return "Rename";
      case Flag::Issue: return "Issue";
      case Flag::Exec: return "Exec";
      case Flag::Retire: return "Retire";
      case Flag::Squash: return "Squash";
      case Flag::Kill: return "Kill";
      case Flag::Dra: return "Dra";
      case Flag::Mem: return "Mem";
      case Flag::Pool: return "Pool";
      case Flag::Reg: return "Reg";
      default: panic("unknown debug flag");
    }
}

bool
detail::enabledAfterEnv(unsigned bit)
{
    parseEnvOnce();
    return (flagMask.load(std::memory_order_relaxed) & bit) != 0;
}

bool
anyEnabled()
{
    parseEnvOnce();
    return detail::flagMask.load(std::memory_order_relaxed) != 0;
}

void
setFlags(const std::string &csv)
{
    detail::flagMask.fetch_and(~detail::kEnvUnread,
                               std::memory_order_release);
    unsigned add = 0;
    for (const std::string &raw : split(csv, ',')) {
        std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        if (name == "all") {
            add |= allMask;
            continue;
        }
        bool found = false;
        for (unsigned f = 0;
             f < static_cast<unsigned>(Flag::NumFlags); ++f) {
            if (toLower(flagName(static_cast<Flag>(f))) == name) {
                add |= 1u << f;
                found = true;
                break;
            }
        }
        fatal_if(!found, "unknown debug flag: ", raw);
    }
    detail::flagMask.fetch_or(add, std::memory_order_relaxed);
}

void
clearFlags()
{
    detail::flagMask.store(0, std::memory_order_release);
}

void
emit(Flag flag, Cycle cycle, const std::string &message)
{
    // One formatted string per line so concurrent workers cannot
    // interleave mid-line.
    std::ostringstream os;
    os << cycle << ": " << flagName(flag) << ": " << message << "\n";
    std::cerr << os.str();
}

void
emit(Flag flag, const std::string &message)
{
    std::ostringstream os;
    os << "-: " << flagName(flag) << ": " << message << "\n";
    std::cerr << os.str();
}

} // namespace loopsim::debug
