/**
 * @file
 * Deterministic mutation fuzzing of the reader of user-supplied input
 * outside the store: the `k=v` config grammar (Config::parseAssignment
 * and the LOOPSIM_OVERLAY text, down to the typed getters a machine
 * build calls). Mutants are bit flips, truncation at every length and
 * splices of separator bytes.
 *
 * Every mutant must either load or fail as a user error (FatalError;
 * OptionError for the environment grammar), with no panic, no crash
 * and no single allocation larger than the input beyond a small fixed
 * allowance for the error message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>

#include "base/logging.hh"
#include "base/options.hh"
#include "core/machine_config.hh"
#include "sim/config.hh"

#include "fuzz_support.hh"

using namespace loopsim;
using fuzz::AllocWatch;
using fuzz::Tally;

namespace
{

/** Names, messages and stream buffers a rejection may allocate. */
constexpr std::size_t kFixedAllowance = 1024;

/** Silences fatal()'s stderr report for the thousands of rejections. */
struct QuietScope
{
    QuietScope() { detail::setQuiet(true); }
    ~QuietScope() { detail::setQuiet(false); }
};

/** Apply one `k=v` mutant the way a run does: parse it, then read it
 *  back through every typed getter. */
void
checkAssignment(const std::string &text, Tally &tally)
{
    try {
        AllocWatch watch;
        try {
            Config cfg;
            cfg.parseAssignment(text);
            for (const auto &[key, value] : cfg.entries()) {
                for (int kind = 0; kind < 5; ++kind) {
                    try {
                        switch (kind) {
                          case 0: cfg.getInt(key, 0); break;
                          case 1: cfg.getUint(key, 0); break;
                          case 2: cfg.getDouble(key, 0); break;
                          case 3: cfg.getBool(key, false); break;
                          default: cfg.getString(key, ""); break;
                        }
                    } catch (const FatalError &) {
                    }
                }
            }
            ++tally.decoded;
        } catch (const FatalError &) {
            ++tally.rejected;
        }
        if (watch.largest() > std::max(text.size(), kFixedAllowance))
            tally.fail("assignment \"" + text + "\": allocated " +
                       std::to_string(watch.largest()) + " bytes");
    } catch (const std::exception &err) {
        tally.fail("assignment \"" + text + "\": threw " + err.what());
    }
}

/** Resolve one LOOPSIM_OVERLAY mutant and build a machine from it. */
void
checkOverlay(const std::string &text, Tally &tally)
{
    try {
        AllocWatch watch;
        try {
            const RunOptions opts =
                resolveOptions({{"LOOPSIM_OVERLAY", text}});
            Config cfg;
            for (const auto &[key, value] : opts.overlay)
                cfg.set(key, value);
            MachineConfig::fromConfig(cfg);
            ++tally.decoded;
        } catch (const OptionError &) {
            ++tally.rejected;
        } catch (const FatalError &) {
            ++tally.rejected;
        }
        if (watch.largest() > std::max(text.size(), kFixedAllowance))
            tally.fail("overlay \"" + text + "\": allocated " +
                       std::to_string(watch.largest()) + " bytes");
    } catch (const std::exception &err) {
        tally.fail("overlay \"" + text + "\": threw " + err.what());
    }
}

/** Every truncation, flip and separator splice of @p text. */
template <class Check>
void
mutateText(const std::string &text, std::mt19937_64 &rng, Tally &tally,
           Check check)
{
    for (std::size_t len = 0; len <= text.size(); ++len)
        check(text.substr(0, len), tally);
    for (int round = 0; round < 2000; ++round)
        check(fuzz::flipBits(text, rng, 0), tally);
    for (std::size_t at = 0; at < text.size(); ++at) {
        for (char c : {'=', ',', ' ', '\0', '-', '.', 'x'}) {
            std::string spliced = text;
            spliced[at] = c;
            check(spliced, tally);
        }
    }
}

} // anonymous namespace

TEST(FuzzConfigText, AssignmentsParseOrAreUserErrors)
{
    QuietScope quiet;
    std::mt19937_64 rng(4);
    Tally tally;
    for (const char *seed :
         {"core.iq.entries=64", " dra.enable = true ",
          "integrity.fault.load_delay=0.01", "mem.tlb.walk=0x3"})
        mutateText(seed, rng, tally, checkAssignment);
    EXPECT_GT(tally.decoded, 0u);
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
}

TEST(FuzzConfigText, OverlaysResolveOrAreUserErrors)
{
    QuietScope quiet;
    std::mt19937_64 rng(5);
    Tally tally;
    for (const char *seed :
         {"core.iq.entries=64,dra.enable=true",
          "core.width=8 core.clusters=4 core.rob.entries=128",
          "core.load_recovery=reissue,core.fetch_policy=icount"})
        mutateText(seed, rng, tally, checkOverlay);
    EXPECT_GT(tally.decoded, 0u);
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
}
