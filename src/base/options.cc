#include "base/options.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "base/annotations.hh"
#include "base/debug.hh"
#include "base/str.hh"

extern char **environ; // NOLINT(readability-redundant-declaration)

namespace loopsim
{

namespace
{

constexpr const char *kBool =
    "expected a boolean: true/1/yes/on or false/0/no/off";
constexpr const char *kCount = "expected a whole unsigned integer";
constexpr const char *kPositive = "expected a whole integer >= 1";
constexpr const char *kJobs =
    "expected a whole unsigned integer or \"auto\"";
constexpr const char *kPath = "expected a path";
constexpr const char *kFlags =
    "expected comma-separated debug flags (Fetch, Rename, Issue, Exec, "
    "Retire, Squash, Kill, Dra, Mem, Pool, Reg) or \"All\"";
constexpr const char *kOverlay =
    "expected comma- or space-separated key=value config assignments";

/** Config::getBool's grammar. */
bool
parseBool(const std::string &text, bool &out)
{
    const std::string v = toLower(trim(text));
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        out = true;
    else if (v == "false" || v == "0" || v == "no" || v == "off")
        out = false;
    else
        return false;
    return true;
}

/** "a.b=c,d.e=f" or space-separated, as Config::parseAssignment
 *  splits and trims each assignment. */
bool
parseOverlay(const std::string &text,
             std::map<std::string, std::string> &out)
{
    for (const std::string &chunk : split(text, ',')) {
        for (const std::string &assign : split(chunk, ' ')) {
            if (assign.empty())
                continue;
            const std::size_t eq = assign.find('=');
            if (eq == std::string::npos)
                return false;
            std::string key = trim(assign.substr(0, eq));
            if (key.empty())
                return false;
            out[key] = trim(assign.substr(eq + 1));
        }
    }
    return true;
}

/** One runtime variable: its name, grammar and where it lands. */
struct Knob
{
    const char *name;
    const char *grammar;
    bool (*apply)(const std::string &value, RunOptions &o);
};

template <bool RunOptions::*field>
bool
boolKnob(const std::string &value, RunOptions &o)
{
    return parseBool(value, o.*field);
}

template <std::string RunOptions::*field>
bool
pathKnob(const std::string &value, RunOptions &o)
{
    o.*field = value;
    return true;
}

constexpr Knob kKnobs[] = {
    {"LOOPSIM_AUDIT", kBool, boolKnob<&RunOptions::audit>},
    {"LOOPSIM_BENCH_JSON", kPath, pathKnob<&RunOptions::benchJson>},
    {"LOOPSIM_BENCH_OPS", kPositive,
     [](const std::string &v, RunOptions &o) {
         return parseCount(v, o.benchOps) && o.benchOps > 0;
     }},
    {"LOOPSIM_DEADLINE_MS", kCount,
     [](const std::string &v, RunOptions &o) {
         return parseCount(v, o.deadlineMs);
     }},
    {"LOOPSIM_DEBUG", kFlags,
     [](const std::string &v, RunOptions &o) {
         std::string bad;
         o.debugFlags = debug::parseFlags(v, bad);
         return bad.empty();
     }},
    {"LOOPSIM_DENSE_KERNEL", kBool, boolKnob<&RunOptions::denseKernel>},
    {"LOOPSIM_ISOLATE", kBool, boolKnob<&RunOptions::isolate>},
    {"LOOPSIM_JOBS", kJobs,
     [](const std::string &v, RunOptions &o) {
         bool ok = false;
         o.jobs = parseJobsSpec(v, ok);
         return ok;
     }},
    {"LOOPSIM_JOURNAL", kPath, pathKnob<&RunOptions::journalPath>},
    {"LOOPSIM_OVERLAY", kOverlay,
     [](const std::string &v, RunOptions &o) {
         return parseOverlay(v, o.overlay);
     }},
    {"LOOPSIM_STORE", kPath, pathKnob<&RunOptions::storePath>},
    {"LOOPSIM_TRACE", kPath,
     [](const std::string &v, RunOptions &o) {
         o.traceCollection = true;
         return pathKnob<&RunOptions::tracePath>(v, o);
     }},
};

/** Retired variables and what replaced each. */
constexpr std::pair<const char *, const char *> kRemoved[] = {
    {"LOOPSIM_CHECK",
     "removed; use LOOPSIM_OVERLAY=integrity.checks.enable=true"},
    {"LOOPSIM_DEBUG_MISS", "removed; use LOOPSIM_DEBUG=Dra"},
    {"LOOPSIM_PROFILE", "removed; the kernel profile is always on"},
    {"LOOPSIM_TRACE_POOL",
     "removed; use LOOPSIM_DEBUG=Pool and grep for one slot"},
    {"LOOPSIM_TRACE_REG",
     "removed; use LOOPSIM_DEBUG=Reg and grep for one register"},
};

constexpr const char *kFixed =
    "was removed: fixed at the paper's §2 value; no figure varies it";

/** Retired config keys (by prefix), refused wherever config text
 *  enters: LOOPSIM_OVERLAY and Config::parseAssignment. */
constexpr std::pair<const char *, const char *> kRemovedKeys[] = {
    {"integrity.retry.", "was removed: a cell runs once, since a SimError "
                         "is a pure function of config and seed"},
    {"integrity.supervisor.deadline_ms",
     "was removed: use --deadline-ms or LOOPSIM_DEADLINE_MS"},
    {"integrity.supervisor.backoff",
     "was removed: a respawn follows a fixed 100 ms pause"},
    {"branch.", "was removed: branch outcomes come only from the "
                "workload profile's calibrated mispredict tags"},
    {"mem.icache.", "was removed: fetch never misses; no figure models "
                    "an I-cache"},
    {"mem.l1.repl", "was removed: caches are LRU only"},
    {"mem.l2.repl", "was removed: caches are LRU only"},
    {"workload.", "was removed: workloads are the ten calibrated "
                  "profiles"},
    {"core.front_latency", kFixed},   {"core.branch_feedback", kFixed},
    {"core.iq_clear_delay", kFixed},  {"core.miss_notice", kFixed},
    {"core.phys_regs", kFixed},       {"mem.line", kFixed},
    {"mem.l1.size", kFixed},          {"mem.l1.assoc", kFixed},
    {"mem.l1.banks", kFixed},         {"mem.l1.latency", kFixed},
    {"mem.l2.size", kFixed},          {"mem.l2.assoc", kFixed},
    {"mem.l2.latency", kFixed},       {"mem.latency", kFixed},
    {"mem.mshrs", kFixed},            {"mem.tlb.entries", kFixed},
    {"mem.tlb.page", kFixed},
};

/** Read by CMake at configure time, not by the program. */
constexpr const char *kBuildTime[] = {"LOOPSIM_SANITIZE"};

std::string
knownNames()
{
    std::string out;
    for (const Knob &k : kKnobs)
        out += std::string(out.empty() ? "" : ", ") + k.name;
    return out;
}

/** This process's LOOPSIM_* variables. */
Environment
processEnvironment()
{
    Environment env;
    for (char **e = environ; e && *e; ++e) {
        const std::string entry = *e;
        const std::size_t eq = entry.find('=');
        if (startsWith(entry, "LOOPSIM_") && eq != std::string::npos)
            env[entry.substr(0, eq)] = entry.substr(eq + 1);
    }
    return env;
}

std::mutex resolveMutex;

RunOptions &
storage()
{
    LOOPSIM_CAMPAIGN_GUARDED("resolved under resolveMutex before workers "
                             "start; setters run between campaigns")
    static RunOptions opts;
    return opts;
}

unsigned
gateBits(const RunOptions &o)
{
    return o.audit ? options::kAuditBit : 0u;
}

/** Resolve from the real environment once; exit 2 on a bad value. */
void
resolveProcess()
{
    std::string error;
    {
        std::lock_guard<std::mutex> lock(resolveMutex);
        if (!(options::detail::gateWord.load(std::memory_order_relaxed) &
              options::kUnresolvedBit))
            return;
        try {
            storage() = resolveOptions(processEnvironment());
            options::detail::gateWord.store(gateBits(storage()),
                                            std::memory_order_release);
            return;
        } catch (const OptionError &err) {
            error = err.what();
        }
    }
    std::fprintf(stderr, "loopsim: %s\n", error.c_str());
    std::exit(2); // NOLINT(concurrency-mt-unsafe)
}

} // anonymous namespace

OptionError::OptionError(const std::string &variable_name,
                         const std::string &given,
                         const std::string &why)
    : std::runtime_error(variable_name + "=\"" + given + "\": " + why),
      variable(variable_name), value(given), reason(why)
{}

RunOptions
resolveOptions(const Environment &env)
{
    RunOptions o;
    for (const auto &[name, value] : env) {
        if (value.empty())
            continue;
        auto knob = std::find_if(std::begin(kKnobs), std::end(kKnobs),
                                 [&](const Knob &k) {
                                     return name == k.name;
                                 });
        if (knob != std::end(kKnobs)) {
            if (!knob->apply(value, o))
                throw OptionError(name, value, knob->grammar);
            continue;
        }
        for (const auto &[old, replacement] : kRemoved) {
            if (name == old)
                throw OptionError(name, value, replacement);
        }
        if (std::find(std::begin(kBuildTime), std::end(kBuildTime),
                      name) == std::end(kBuildTime)) {
            throw OptionError(name, value,
                              "unknown variable; the known ones are " +
                                  knownNames());
        }
    }
    for (const auto &entry : o.overlay) {
        if (const char *why = removedKeyReason(entry.first))
            throw OptionError("LOOPSIM_OVERLAY", env.at("LOOPSIM_OVERLAY"),
                              entry.first + " " + why);
    }
    return o;
}

const char *
removedKeyReason(const std::string &key)
{
    for (const auto &[old, why] : kRemovedKeys) {
        if (startsWith(key, old))
            return why;
    }
    return nullptr;
}

RunOptions &
processOptions()
{
    if (options::detail::gateWord.load(std::memory_order_acquire) &
        options::kUnresolvedBit) [[unlikely]]
        resolveProcess();
    return storage();
}

bool
parseCount(const std::string &text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

unsigned
hostCpus()
{
    return std::max(std::thread::hardware_concurrency(), 1u);
}

unsigned
parseJobsSpec(const std::string &spec, bool &ok)
{
    ok = true;
    if (spec == "auto")
        return hostCpus();
    std::uint64_t v = 0;
    ok = parseCount(spec, v);
    return ok ? static_cast<unsigned>(std::min<std::uint64_t>(v, 1024))
              : 0;
}

namespace options
{

std::atomic<unsigned> detail::gateWord{kUnresolvedBit};

bool
detail::gateAfterResolve(unsigned bit)
{
    processOptions();
    return (gateWord.load(std::memory_order_relaxed) & bit) != 0;
}

void
setGate(unsigned bits, bool on)
{
    processOptions();
    if (on)
        detail::gateWord.fetch_or(bits, std::memory_order_relaxed);
    else
        detail::gateWord.fetch_and(~bits, std::memory_order_relaxed);
}

} // namespace options

} // namespace loopsim
