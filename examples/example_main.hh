/**
 * @file
 * What the examples share: op-count arguments in the run options'
 * count grammar, the refusal of k=v keys that nothing reads, and a
 * main() wrapper that turns a run or input error into a message on
 * stderr, nothing on stdout, and exit status 2.
 */

#ifndef LOOPSIM_EXAMPLES_EXAMPLE_MAIN_HH
#define LOOPSIM_EXAMPLES_EXAMPLE_MAIN_HH

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/options.hh"
#include "integrity/sim_error.hh"

namespace loopsim::examples
{

/** argv[@p i] as an op count (a whole integer >= 1), or @p def when
 *  it is absent; fatal() on anything else. */
inline std::uint64_t
opsArg(int argc, char **argv, int i, std::uint64_t def)
{
    if (argc <= i)
        return def;
    std::uint64_t ops = 0;
    if (!parseCount(argv[i], ops) || ops == 0)
        fatal("invalid op count \"", argv[i], "\" (expected a whole "
              "integer >= 1)");
    return ops;
}

/** fatal() naming each of @p unread, the config keys a run sets but
 *  never reads (likely misspelled), unless there are none. */
inline void
refuseUnread(const std::vector<std::string> &unread)
{
    if (unread.empty())
        return;
    std::string names;
    for (const std::string &key : unread)
        names += " " + key;
    fatal("config keys that nothing reads (misspelled?):", names);
}

/**
 * Run @p body with stdout held back. On success print what it wrote
 * and return its status. On a FatalError (which fatal() has already
 * reported on stderr; a usage line naming @p args follows it) or a
 * SimError (reported here) print nothing on stdout and return 2.
 */
template <class Body>
int
guardedMain(const char *prog, const char *args, Body body)
{
    std::ostringstream held;
    std::streambuf *const stdout_buf = std::cout.rdbuf(held.rdbuf());
    try {
        const int status = body();
        std::cout.rdbuf(stdout_buf);
        std::cout << held.str();
        return status;
    } catch (const SimError &err) {
        std::cerr << prog << ": " << err.what() << "\n";
    } catch (const FatalError &) {
        // fatal() has reported it.
        std::cerr << "usage: " << prog << " " << args << "\n";
    }
    std::cout.rdbuf(stdout_buf);
    return 2;
}

} // namespace loopsim::examples

#endif // LOOPSIM_EXAMPLES_EXAMPLE_MAIN_HH
