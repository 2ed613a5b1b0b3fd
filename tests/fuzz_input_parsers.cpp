/**
 * @file
 * Deterministic mutation fuzzing of the two readers of user-supplied
 * input outside the store: the LSTR trace-file reader (TraceReader)
 * and the `k=v` config grammar (Config::parseAssignment and the
 * LOOPSIM_OVERLAY text, down to the typed getters a machine build
 * calls). Mutation classes:
 *
 *  - trace files: bit flips in the header and the records, truncation
 *    at every length, an inflated header count, and bad magic and
 *    version words;
 *  - assignments and overlays: bit flips, truncation at every length
 *    and splices of separator bytes.
 *
 * Every mutant must either load or fail as a user error (FatalError;
 * OptionError for the environment grammar), with no panic, no crash
 * and no single allocation larger than the input beyond a small fixed
 * allowance for the file name and the error message. A trace that
 * loads must also run on a Core without a panic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/options.hh"
#include "core/core.hh"
#include "core/machine_config.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workload/trace_file.hh"

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

/** A 4-record LSTR image covering loads, stores and both branch
 *  flags. */
std::string
traceImage(const std::string &path)
{
    {
        TraceWriter writer(path);
        const OpClass classes[] = {OpClass::IntAlu, OpClass::Load,
                                   OpClass::Store, OpClass::BranchCond};
        for (int i = 0; i < 4; ++i) {
            MicroOp op;
            op.seq = static_cast<SeqNum>(i);
            op.pc = 0x1000 + 4 * static_cast<Addr>(i);
            op.opClass = classes[i];
            op.src[0] = static_cast<ArchReg>(i);
            if (!op.isStore())
                op.dest = static_cast<ArchReg>(10 + i);
            op.effAddr = 0x5000000;
            op.taken = i == 3;
            op.forceMispredict = i == 3;
            writer.append(op);
        }
    }
    std::string img;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    char buf[256];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        img.append(buf, n);
    std::fclose(f);
    return img;
}

/**
 * Read a trace mutant to its end and check the contract; a mutant
 * that loads is then run on a Core, which must not panic on anything
 * the reader let through.
 */
void
checkTrace(const std::string &img, const std::string &path, Tally &tally,
           const std::string &label)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite(img.data(), 1, img.size(), f);
    std::fclose(f);
    try {
        bool loaded = false;
        std::size_t largest = 0;
        {
            AllocWatch watch;
            try {
                TraceReader reader(path);
                MicroOp op;
                while (reader.next(op)) {
                }
                loaded = true;
            } catch (const FatalError &) {
            }
            largest = watch.largest();
        }
        if (largest > std::max(img.size(), kFixedAllowance))
            tally.fail(label + ": allocated " + std::to_string(largest) +
                       " bytes for a " + std::to_string(img.size()) +
                       "-byte trace");
        if (!loaded) {
            ++tally.rejected;
            return;
        }
        ++tally.decoded;
        TraceReader reader(path);
        Core core(Config{}, {&reader});
        Simulator sim;
        sim.add(&core);
        sim.run(20000);
    } catch (const std::exception &err) {
        tally.fail(label + ": threw " + err.what());
    }
}

/** Overwrite the little-endian word of @p bytes at @p at with @p v. */
template <class T>
std::string
withWord(std::string img, std::size_t at, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        img[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    return img;
}

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

constexpr std::size_t kHeaderBytes = 16;

} // anonymous namespace

TEST(FuzzTraceFile, EveryTruncationLoadsOrIsAUserError)
{
    QuietScope quiet;
    const std::string path = ::testing::TempDir() + "fuzz_trunc.ltrc";
    const std::string img = traceImage(path);
    ASSERT_EQ(img.size(), kHeaderBytes + 4 * 40);
    Tally tally;
    for (std::size_t len = 0; len <= img.size(); ++len)
        checkTrace(img.substr(0, len), path, tally, "truncation");
    // Only the whole file loads: every shorter one loses its header or
    // a record the header counts.
    EXPECT_EQ(tally.decoded, 1u);
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
    std::remove(path.c_str());
}

TEST(FuzzTraceFile, BitFlipsLoadOrAreUserErrors)
{
    QuietScope quiet;
    const std::string path = ::testing::TempDir() + "fuzz_flip.ltrc";
    const std::string img = traceImage(path);
    std::mt19937_64 rng(3);
    Tally tally;
    for (int round = 0; round < 3000; ++round)
        checkTrace(fuzz::flipBits(img, rng, 0), path, tally, "flip");
    // Flips in the address and pc words load; flips in the class,
    // register and flag bytes mostly do not.
    EXPECT_GT(tally.decoded, 0u);
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
    std::remove(path.c_str());
}

TEST(FuzzTraceFile, BadHeaderWordsAreUserErrors)
{
    QuietScope quiet;
    const std::string path = ::testing::TempDir() + "fuzz_header.ltrc";
    const std::string img = traceImage(path);
    Tally tally;
    // An inflated record count reads to the end of the file and stops
    // there, without sizing anything by the count.
    for (std::uint64_t count :
         {std::uint64_t{5}, std::uint64_t{1} << 32, ~std::uint64_t{0}})
        checkTrace(withWord(img, 8, count), path, tally, "count");
    for (std::uint32_t version : {0u, 2u, 0xffffffffu})
        checkTrace(withWord(img, 4, version), path, tally, "version");
    checkTrace(withWord(img, 0, std::uint32_t{0x5254534d}), path, tally,
               "magic");
    EXPECT_EQ(tally.decoded, 0u);
    EXPECT_EQ(tally.rejected, 7u);
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
    std::remove(path.c_str());
}

TEST(FuzzConfigText, AssignmentsParseOrAreUserErrors)
{
    QuietScope quiet;
    std::mt19937_64 rng(4);
    Tally tally;
    for (const char *seed :
         {"core.iq.entries=64", " dra.enable = true ",
          "integrity.fault.load_delay=0.01", "mem.l1.latency=0x3"})
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
