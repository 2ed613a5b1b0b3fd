#include "base/debug.hh"

#include "base/logging.hh"
#include "base/options.hh"
#include "base/str.hh"

namespace loopsim::debug
{

namespace
{

constexpr unsigned allMask =
    (1u << static_cast<unsigned>(Flag::NumFlags)) - 1;

constexpr const char *names[] = {"Fetch",  "Rename", "Issue", "Exec",
                                 "Retire", "Squash", "Kill",  "Dra",
                                 "Mem",    "Pool",   "Reg"};
static_assert(std::size(names) == static_cast<unsigned>(Flag::NumFlags));

} // anonymous namespace

const char *
flagName(Flag flag)
{
    panic_if(flag >= Flag::NumFlags, "unknown debug flag");
    return names[static_cast<unsigned>(flag)];
}

unsigned
parseFlags(const std::string &csv, std::string &bad)
{
    unsigned bits = 0;
    bad.clear();
    for (const std::string &raw : split(csv, ',')) {
        const std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        if (name == "all") {
            bits |= allMask;
            continue;
        }
        bool found = false;
        for (unsigned f = 0;
             f < static_cast<unsigned>(Flag::NumFlags); ++f) {
            if (toLower(flagName(static_cast<Flag>(f))) == name) {
                bits |= 1u << f;
                found = true;
                break;
            }
        }
        if (!found && bad.empty())
            bad = trim(raw);
    }
    return bits;
}

std::string
flagsText(unsigned bits)
{
    std::string out;
    for (unsigned f = 0; f < static_cast<unsigned>(Flag::NumFlags); ++f) {
        if (bits & (1u << f))
            out += std::string(out.empty() ? "" : ",") +
                   flagName(static_cast<Flag>(f));
    }
    return out;
}

void
setFlags(const std::string &csv)
{
    std::string bad;
    const unsigned add = parseFlags(csv, bad);
    fatal_if(!bad.empty(), "unknown debug flag: ", bad);
    processOptions().debugFlags |= add;
}

void
clearFlags()
{
    processOptions().debugFlags = 0;
}

} // namespace loopsim::debug
