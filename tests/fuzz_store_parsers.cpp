/**
 * @file
 * Deterministic mutation fuzzing of the store's two parsers: the
 * record decoder (store::decodeRecord) and journal replay
 * (store::replayJournal, plus CampaignJournal's open path on damaged
 * files). There is no fuzzing engine: a fixed-seed PRNG drives bounded
 * rounds of mutations over a few seed records, so every run checks the
 * same mutants and a failure reproduces exactly. Mutation classes:
 *
 *  - bit flips, raw (the CRC must reject every one that touches the
 *    payload) and with the CRC recomputed so the payload parser itself
 *    sees the damage;
 *  - truncation at every length, raw and with the header's size and
 *    CRC rewritten to match;
 *  - inflated length and count fields with the CRC recomputed: a
 *    record that passes its payload check but claims four billion
 *    doubles must be rejected before anything is allocated for them.
 *
 * Every mutant must either decode or be rejected, with no crash (the
 * asan-ubsan CI leg runs `ctest -L fuzz`), no exception, and no single
 * allocation larger than the input (fuzz_support.hh watches them).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/record.hh"

#include "fuzz_support.hh"

using namespace loopsim;
namespace fs = std::filesystem;

namespace
{

using fuzz::AllocWatch;
using fuzz::Tally;
using fuzz::flipBits;

std::uint32_t
getU32(const std::string &b, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + i]))
             << (8 * i);
    return v;
}

void
putU32(std::string &b, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
appendU32(std::string &b, std::uint32_t v)
{
    b.append(4, '\0');
    putU32(b, b.size() - 4, v);
}

void
appendU64(std::string &b, std::uint64_t v)
{
    appendU32(b, static_cast<std::uint32_t>(v));
    appendU32(b, static_cast<std::uint32_t>(v >> 32));
}

/** Rewrite a record's payload-size and CRC fields to match whatever
 *  payload it now carries, so the payload check passes. */
void
resealRecord(std::string &rec)
{
    const std::size_t n = rec.size() - store::kRecordHeaderBytes;
    putU32(rec, 24, static_cast<std::uint32_t>(n));
    putU32(rec, 28,
           store::crc32(rec.data() + store::kRecordHeaderBytes, n));
}

/** Seed results: rich, empty, and figure-sized. */
std::vector<RunResult>
seedResults()
{
    std::vector<RunResult> out;

    RunResult rich;
    rich.workloadLabel = "apsi-swim";
    rich.pipeLabel = "DRA 7";
    rich.cycles = 987654321;
    rich.retired = 20011;
    rich.ipc = 1.0 / 3.0;
    rich.failed = true;
    rich.failKind = FailKind::Timeout;
    rich.error = "deadline exceeded while draining the pipeline";
    rich.operandSourceFractions = {0.5, 0.25, 0.125, 0.0625, 0.0, 0.0625};
    rich.operandSourceCounts = {8, 4, 2, 1, 0, 1};
    rich.gapCdf = {0.0, 0.5, 1.0};
    rich.scalars["core.retired"] = 20011;
    rich.scalars["dra.crc_hits"] = 0.1;
    rich.scalars["mem.load_miss_events"] = -7.5;
    out.push_back(rich);

    out.emplace_back();

    RunResult figure;
    figure.workloadLabel = "m88-comp";
    figure.pipeLabel = "5_5";
    figure.cycles = 41234;
    figure.retired = 80000;
    figure.ipc = 1.94;
    figure.operandSourceFractions = {0.3, 0.2, 0.1, 0.2, 0.1, 0.1};
    figure.operandSourceCounts = {3e4, 2e4, 1e4, 2e4, 1e4, 1e4};
    for (int i = 0; i <= 128; ++i)
        figure.gapCdf.push_back(std::min(1.0, i / 90.0));
    for (int i = 0; i < 15; ++i)
        figure.scalars["core.some_longer_statistic_" + std::to_string(i)] =
            i * 1.5;
    out.push_back(figure);
    return out;
}

/**
 * Offsets of every u32 length or count field in a valid record's
 * payload, walking the layout encodeRecord writes: two labels, three
 * scalars, the failed flag, the fail kind, the error, three double
 * vectors, the scalar count and each scalar's name.
 */
std::vector<std::size_t>
lengthFields(const std::string &rec)
{
    std::vector<std::size_t> out;
    std::size_t at = store::kRecordHeaderBytes;
    auto str = [&] {
        out.push_back(at);
        at += 4 + getU32(rec, at);
    };
    auto doubles = [&] {
        out.push_back(at);
        at += 4 + 8ull * getU32(rec, at);
    };
    str();
    str();
    at += 8 + 8 + 8 + 1;
    out.push_back(at); // fail kind: not a length, but a bounded enum
    at += 4;
    str();
    doubles();
    doubles();
    doubles();
    const std::uint32_t scalars = getU32(rec, at);
    out.push_back(at);
    at += 4;
    for (std::uint32_t i = 0; i < scalars; ++i) {
        str();
        at += 8;
    }
    EXPECT_EQ(at, rec.size());
    return out;
}

/** Values an attacker or a torn write could put in a u32 field. */
std::vector<std::uint32_t>
inflations(std::uint32_t original, std::size_t remaining)
{
    const auto rem = static_cast<std::uint32_t>(remaining);
    return {0xffffffffu,  0x80000000u,   0x7fffffffu,
            0x20000000u,  0x1fffffffu,   0x10000u,
            rem + 1,      rem / 8 + 1,   original + 1,
            original * 2 + 1, original ? original - 1 : 1u};
}

/**
 * Decode one record mutant the way journal replay does (fingerprint
 * from the header) and check the contract. Returns whether it decoded.
 */
bool
checkRecord(const std::string &rec, const store::Fingerprint &fallback,
            Tally &tally, const std::string &label)
{
    store::Fingerprint fp = fallback;
    std::uint32_t schema = 0;
    RunResult out;
    bool ok = false;
    std::size_t largest = 0;
    try {
        AllocWatch watch;
        store::peekRecord(rec, fp, schema);
        ok = store::decodeRecord(rec, fp, out);
        largest = watch.largest();
    } catch (const std::exception &err) {
        tally.fail(label + ": threw " + err.what());
        return false;
    }
    if (largest > rec.size()) {
        tally.fail(label + ": allocated " + std::to_string(largest) +
                   " bytes for a " + std::to_string(rec.size()) +
                   "-byte record");
    }
    if (ok) {
        // Whatever decodes must survive its own round trip, compared
        // as bytes (a flipped exponent can make a NaN).
        const std::string once = store::encodeRecord(fp, out);
        RunResult again;
        if (!store::decodeRecord(once, fp, again) ||
            store::encodeRecord(fp, again) != once)
            tally.fail(label + ": decoded result does not round-trip");
        ++tally.decoded;
    } else {
        ++tally.rejected;
    }
    return ok;
}

constexpr int kFlipRounds = 5000;

} // anonymous namespace

TEST(FuzzRecord, BitFlipsAreRejectedByTheCrcOrParseCleanly)
{
    const store::Fingerprint fp{0x0123456789abcdefull, 0x0fedcba987654321ull};
    std::mt19937_64 rng(1);
    Tally tally;
    for (const RunResult &seed : seedResults()) {
        const std::string rec = store::encodeRecord(fp, seed);
        for (int round = 0; round < kFlipRounds; ++round) {
            // Raw: only the fingerprint bytes are outside every check,
            // so a flip anywhere else must make the record unreadable.
            const std::string raw = flipBits(rec, rng, 0);
            const bool ok = checkRecord(raw, fp, tally, "raw flip");
            bool outside_fp = false; // two flips of one bit cancel
            for (std::size_t at = 0; at < raw.size(); ++at)
                outside_fp |= raw[at] != rec[at] && (at < 8 || at >= 24);
            if (ok && outside_fp)
                tally.fail("raw flip outside the fingerprint decoded");

            // Resealed: the payload parser sees the flipped bytes.
            std::string sealed =
                flipBits(rec, rng, store::kRecordHeaderBytes);
            resealRecord(sealed);
            checkRecord(sealed, fp, tally, "resealed flip");
        }
    }
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.decoded, 0u);
}

TEST(FuzzRecord, EveryTruncationIsRejected)
{
    const store::Fingerprint fp{0x1111ull, 0x2222ull};
    Tally tally;
    for (const RunResult &seed : seedResults()) {
        const std::string rec = store::encodeRecord(fp, seed);
        for (std::size_t len = 0; len < rec.size(); ++len) {
            if (checkRecord(rec.substr(0, len), fp, tally, "truncation"))
                tally.fail("truncation to " + std::to_string(len) +
                           " bytes decoded");
            if (len < store::kRecordHeaderBytes)
                continue;
            // A payload cut short but resealed: the parser, not the
            // CRC, has to notice the missing fields.
            std::string sealed = rec.substr(0, len);
            resealRecord(sealed);
            if (checkRecord(sealed, fp, tally, "resealed truncation"))
                tally.fail("resealed truncation to " + std::to_string(len) +
                           " bytes decoded");
        }
    }
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
}

TEST(FuzzRecord, InflatedCountsWithValidCrcAreRejectedWithoutAllocating)
{
    const store::Fingerprint fp{0x3333ull, 0x4444ull};
    Tally tally;
    std::size_t mutants = 0;
    for (const RunResult &seed : seedResults()) {
        const std::string rec = store::encodeRecord(fp, seed);
        for (std::size_t field : lengthFields(rec)) {
            const std::uint32_t original = getU32(rec, field);
            for (std::uint32_t v :
                 inflations(original, rec.size() - field - 4)) {
                if (v == original)
                    continue;
                std::string m = rec;
                putU32(m, field, v);
                resealRecord(m);
                ++mutants;
                // A count past the end of the input can never be met.
                if (checkRecord(m, fp, tally, "inflated field") &&
                    v > rec.size())
                    tally.fail("a count of " + std::to_string(v) +
                               " in a " + std::to_string(rec.size()) +
                               "-byte record decoded");
            }
        }
        // The header's own size field: claims the record is bigger
        // (or smaller) than the bytes present.
        for (std::uint32_t v : inflations(getU32(rec, 24), rec.size())) {
            std::string m = rec;
            putU32(m, 24, v);
            if (v != getU32(rec, 24) &&
                checkRecord(m, fp, tally, "inflated size"))
                tally.fail("a record with a wrong size field decoded");
        }
    }
    EXPECT_GT(mutants, 100u);
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
}

TEST(FuzzRecord, DecodeAndCopyAllocationsStayFlat)
{
    // A figure cell's record: the 21 scalars a core exports. A decode
    // and a copy of the result may allocate the three double vectors,
    // the scalar table (which grows by doubling while a decode appends,
    // and is allocated once by a copy) and each name too long for the
    // string's inline buffer; one allocation per scalar, as a node per
    // name would make, exceeds both bounds.
    RunSpec spec;
    spec.workload = resolveWorkload("gcc");
    spec.totalOps = 2000;
    spec.warmupOps = 0;
    const RunResult result = runOnce(spec);
    ASSERT_EQ(result.scalars.size(), 21u);
    std::size_t longNames = 0;
    for (const auto &[name, value] : result.scalars)
        longNames += name.size() > std::string().capacity() ? 1 : 0;
    const std::size_t vectors = 3;
    const std::size_t growth = 6; // capacities 1, 2, 4, 8, 16, 32

    const store::Fingerprint fp{0x5555ull, 0x6666ull};
    const std::string rec = store::encodeRecord(fp, result);
    RunResult decoded;
    std::size_t decodeAllocs = 0;
    {
        AllocWatch watch;
        ASSERT_TRUE(store::decodeRecord(rec, fp, decoded));
        decodeAllocs = watch.count();
    }
    std::size_t copyAllocs = 0;
    {
        AllocWatch watch;
        const RunResult copy = decoded;
        copyAllocs = watch.count();
        EXPECT_TRUE(copy.scalars == result.scalars);
    }
    EXPECT_LE(decodeAllocs, vectors + growth + longNames);
    EXPECT_LE(copyAllocs, vectors + 1 + longNames);
    EXPECT_LT(decodeAllocs, result.scalars.size());
    EXPECT_LT(copyAllocs, result.scalars.size());
}

namespace
{

const store::Fingerprint kPlanFp{0xaaaabbbbccccddddull, 0x1234567890abcdefull};
constexpr std::uint64_t kPlanCells = 3;

/** A journal image: header plus one entry per seed result, and the
 *  end offset of each entry. */
std::string
journalImage(std::vector<std::size_t> &ends)
{
    std::string img;
    appendU32(img, store::kJournalMagic);
    appendU32(img, store::kSchemaVersion);
    appendU64(img, kPlanFp.hi);
    appendU64(img, kPlanFp.lo);
    appendU64(img, kPlanCells);
    ends.clear();
    std::uint64_t salt = 1;
    for (const RunResult &r : seedResults()) {
        const std::string rec =
            store::encodeRecord(store::Fingerprint{salt, ~salt}, r);
        ++salt;
        appendU32(img, static_cast<std::uint32_t>(rec.size()));
        img += rec;
        ends.push_back(img.size());
    }
    return img;
}

/** A decoded journal entry's map node is the one allocation replay
 *  makes that does not scale with input bytes. */
constexpr std::size_t kReplayNodeBytes =
    sizeof(std::pair<const store::Fingerprint, RunResult>) +
    4 * sizeof(void *);

/** Replay one journal mutant and check the contract; returns the valid
 *  prefix length. */
std::size_t
checkJournal(const std::string &img, Tally &tally, const std::string &label,
             std::size_t *entries = nullptr)
{
    std::map<store::Fingerprint, RunResult> replay;
    std::size_t prefix = 0;
    std::size_t largest = 0;
    try {
        AllocWatch watch;
        prefix = store::replayJournal(img, replay);
        largest = watch.largest();
    } catch (const std::exception &err) {
        tally.fail(label + ": threw " + err.what());
        return 0;
    }
    if (largest > std::max(img.size(), kReplayNodeBytes)) {
        tally.fail(label + ": allocated " + std::to_string(largest) +
                   " bytes for a " + std::to_string(img.size()) +
                   "-byte journal");
    }
    if (prefix > img.size())
        tally.fail(label + ": valid prefix runs past the input");
    if (img.size() >= store::kJournalHeaderBytes &&
        prefix < store::kJournalHeaderBytes)
        tally.fail(label + ": valid prefix shorter than the header");
    if (entries)
        *entries = replay.size();
    return prefix;
}

} // anonymous namespace

TEST(FuzzJournal, TruncationKeepsExactlyTheWholeEntries)
{
    std::vector<std::size_t> ends;
    const std::string img = journalImage(ends);
    Tally tally;
    for (std::size_t len = 0; len <= img.size(); ++len) {
        std::size_t entries = 0;
        const std::size_t prefix =
            checkJournal(img.substr(0, len), tally, "truncation", &entries);
        std::size_t expect_prefix =
            len < store::kJournalHeaderBytes ? 0 : store::kJournalHeaderBytes;
        std::size_t expect_entries = 0;
        for (std::size_t end : ends) {
            if (end <= len) {
                expect_prefix = end;
                ++expect_entries;
            }
        }
        if (prefix != expect_prefix || entries != expect_entries)
            tally.fail("truncation to " + std::to_string(len) +
                       " kept prefix " + std::to_string(prefix) + " with " +
                       std::to_string(entries) + " entries");
    }
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
}

TEST(FuzzJournal, BitFlipsAndInflatedLengthsEndTheValidPrefix)
{
    std::vector<std::size_t> ends;
    const std::string img = journalImage(ends);
    std::mt19937_64 rng(2);
    Tally tally;

    for (int round = 0; round < 3 * kFlipRounds; ++round)
        checkJournal(flipBits(img, rng, 0), tally, "flip");

    // Inflated entry lengths: replay stops at that entry, whole.
    std::size_t start = store::kJournalHeaderBytes;
    for (std::size_t k = 0; k < ends.size(); ++k) {
        const std::uint32_t len = getU32(img, start);
        for (std::uint32_t v : inflations(len, img.size() - start - 4)) {
            if (v == len)
                continue;
            std::string m = img;
            putU32(m, start, v);
            if (checkJournal(m, tally, "inflated entry length") != start)
                tally.fail("entry " + std::to_string(k) + " with length " +
                           std::to_string(v) + " was not where replay stopped");
        }

        // Inflated counts inside the entry's record, its CRC resealed.
        const std::string rec = img.substr(start + 4, len);
        for (std::size_t field : lengthFields(rec)) {
            for (std::uint32_t v :
                 inflations(getU32(rec, field), rec.size())) {
                std::string bad = rec;
                putU32(bad, field, v);
                resealRecord(bad);
                std::string m = img.substr(0, start);
                appendU32(m, static_cast<std::uint32_t>(bad.size()));
                m += bad;
                m += img.substr(ends[k]);
                const std::size_t prefix =
                    checkJournal(m, tally, "inflated record count");
                if (v > rec.size() && prefix != start)
                    tally.fail("entry " + std::to_string(k) +
                               " claiming a count of " + std::to_string(v) +
                               " was replayed");
            }
        }
        start = ends[k];
    }
    EXPECT_EQ(tally.failures, 0u) << tally.firstFailure;
}

TEST(FuzzJournal, OpeningADamagedFileKeepsTheValidPrefix)
{
    // The file path through CampaignJournal: replay, truncate the torn
    // tail, and reopen clean. Truncations at a stride keep it quick.
    std::vector<std::size_t> ends;
    const std::string img = journalImage(ends);
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("fuzz_journal." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path file = dir / (kPlanFp.hex() + ".lsj");

    for (std::size_t len = 0; len <= img.size(); len += 13) {
        {
            std::ofstream out(file, std::ios::binary | std::ios::trunc);
            out.write(img.data(), static_cast<std::streamsize>(len));
        }
        std::size_t expect_entries = 0;
        std::size_t expect_size = store::kJournalHeaderBytes;
        for (std::size_t end : ends) {
            if (end <= len) {
                ++expect_entries;
                expect_size = end;
            }
        }
        {
            store::CampaignJournal journal(dir.string(), kPlanFp, kPlanCells);
            ASSERT_TRUE(journal.ok());
            EXPECT_EQ(journal.replayed().size(), expect_entries)
                << "truncated to " << len;
        }
        EXPECT_EQ(fs::file_size(file), expect_size) << "truncated to " << len;
    }
    fs::remove_all(dir);
}
