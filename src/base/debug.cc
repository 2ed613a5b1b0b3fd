#include "base/debug.hh"

#include <iostream>
#include <sstream>

#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim::debug
{

namespace
{

constexpr unsigned allMask =
    (1u << static_cast<unsigned>(Flag::NumFlags)) - 1;
static_assert((allMask & (options::kAuditBit | options::kUnresolvedBit)) ==
                  0,
              "debug flags overlap the option gate's other bits");

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

bool
anyEnabled()
{
    return (processOptions().debugFlags & allMask) != 0;
}

void
setFlags(const std::string &csv)
{
    std::string bad;
    const unsigned add = parseFlags(csv, bad);
    fatal_if(!bad.empty(), "unknown debug flag: ", bad);
    processOptions().debugFlags |= add;
    options::setGate(add, true);
}

void
clearFlags()
{
    processOptions().debugFlags = 0;
    options::setGate(allMask, false);
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
