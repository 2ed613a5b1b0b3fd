/**
 * @file
 * Tests for the persistent content-addressed result store: fingerprint
 * canonicality (permutation/channel independence, total input
 * coverage), record round-trips and tamper rejection, the campaign
 * executor's lookup-before-simulate path (memo dedup, warm-store
 * byte-identity at any job count, corruption degrading to a miss),
 * the trace-collection bypass, and the maintenance operations behind
 * the loopsim-store CLI (verify, gc eviction order).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "store/fingerprint.hh"
#include "store/journal.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "trace/loop_trace.hh"

using namespace loopsim;
namespace fs = std::filesystem;

namespace
{

RunSpec
storeSpec(const std::string &workload, std::uint64_t ops)
{
    RunSpec spec;
    spec.workload = resolveWorkload(workload);
    spec.totalOps = ops;
    spec.warmupOps = 800;
    return spec;
}

/** Same deliberately-wedged configuration the campaign tests use: the
 *  fail-soft path fires quickly and deterministically. */
Config
wedgeConfig()
{
    Config cfg;
    cfg.setBool("integrity.fault.enable", true);
    cfg.setDouble("integrity.fault.wakeup_drop", 1.0);
    cfg.setUint("integrity.watchdog.window", 10000);
    return cfg;
}

/** A fresh, empty store directory under the test temp root.  The pid suffix
 *  keeps the aggregate and label-specific test binaries (which compile the
 *  same sources) from clobbering each other when ctest runs them in
 *  parallel. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / (name + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Flip one byte of the file at @p path. */
void
flipByte(const std::string &path, std::size_t offset)
{
    std::string bytes = readFile(path);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
    writeFile(path, bytes);
}

/** A RunResult exercising every persisted field. */
RunResult
sampleResult(std::uint32_t salt)
{
    RunResult r;
    r.workloadLabel = "synthetic-" + std::to_string(salt);
    r.pipeLabel = "5_5";
    r.cycles = 123456789 + salt;
    r.retired = 424242 + salt;
    r.ipc = 1.25 + 0.001 * salt;
    r.operandSourceFractions = {0.1, 0.2, 0.3, 0.15, 0.15, 0.1};
    r.operandSourceCounts = {10, 20, 30, 15, 15, 10};
    for (int i = 0; i <= 128; ++i)
        r.gapCdf.push_back(std::min(1.0, i / 100.0));
    r.scalars["core.retired"] = 424242.0 + salt;
    r.scalars["dra.preread_hits"] = 77.5;
    return r;
}

/** Two workloads x {base, dra}: the smallest plan that still has a
 *  figure-shaped row/column structure. */
CampaignPlan
fourCellPlan(std::uint64_t ops)
{
    CampaignPlan plan;
    for (const char *w : {"gcc", "swim"}) {
        RunSpec base = storeSpec(w, ops);
        plan.add(std::move(base), std::string(w) + "/base");
        RunSpec dra = storeSpec(w, ops);
        setDraPipeline(dra.overrides, 5);
        plan.add(std::move(dra), std::string(w) + "/dra");
    }
    return plan;
}

/** Assemble + render the 4-cell plan's results the way the figure
 *  drivers do; byte-identity of this string is the acceptance bar. */
std::string
renderFourCells(const std::vector<RunResult> &results)
{
    FigureData fig;
    fig.title = "store determinism probe";
    fig.valueUnit = "IPC";
    fig.columns.push_back(Series{"base", {}});
    fig.columns.push_back(Series{"dra", {}});
    for (std::size_t wi = 0; wi < 2; ++wi) {
        fig.rowLabels.push_back(results[wi * 2].workloadLabel);
        for (std::size_t p = 0; p < 2; ++p) {
            const RunResult &r = results[wi * 2 + p];
            fig.columns[p].values.push_back(
                r.failed ? std::nan("") : r.ipc);
        }
    }
    std::ostringstream os;
    printFigure(os, fig);
    printCsv(os, fig);
    return os.str();
}

/** Hermetic store state around every test: no store directory (even
 *  if LOOPSIM_STORE is exported), an empty memo, automatic jobs. */
class StoreEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        store::resetProcessStore();
        store::setStorePath("");
        setCampaignJobs(0);
    }

    void
    TearDown() override
    {
        trace::setCollection(false);
        trace::takeCollectedRuns();
        clearRunOverlay();
        store::resetProcessStore();
        store::setStorePath("");
        setCampaignJobs(0);
    }
};

} // anonymous namespace

TEST(StoreFingerprint, HexRoundTripAndParseRejects)
{
    store::Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
    EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");

    store::Fingerprint parsed;
    ASSERT_TRUE(store::Fingerprint::parse(fp.hex(), parsed));
    EXPECT_EQ(parsed, fp);

    EXPECT_FALSE(store::Fingerprint::parse("", parsed));
    EXPECT_FALSE(store::Fingerprint::parse(fp.hex().substr(1), parsed));
    EXPECT_FALSE(store::Fingerprint::parse(
        "0123456789abcdeffedcba987654321g", parsed));
}

TEST(StoreFingerprint, TaggedFieldsCannotAlias)
{
    // "" + "ab" must not collide with "a" + "b": every value is
    // length-prefixed behind its field tag.
    store::Hasher h1;
    h1.str("x", "");
    h1.str("y", "ab");
    store::Hasher h2;
    h2.str("x", "a");
    h2.str("y", "b");
    EXPECT_NE(h1.digest(), h2.digest());
}

TEST_F(StoreEnv, FingerprintIgnoresKeyOrderAndOverlayChannel)
{
    const RetryPolicy policy;

    // Same assignments, opposite insertion order.
    RunSpec a = storeSpec("gcc", 3100);
    a.overrides.setUint("integrity.watchdog.window", 123456);
    a.overrides.setUint("integrity.supervisor.attempts", 2);
    RunSpec b = storeSpec("gcc", 3100);
    b.overrides.setUint("integrity.supervisor.attempts", 2);
    b.overrides.setUint("integrity.watchdog.window", 123456);
    EXPECT_EQ(store::fingerprintRun(a, policy),
              store::fingerprintRun(b, policy));

    // Same assignment arriving through the programmatic overlay
    // instead of the spec overrides: the fingerprint hashes the
    // *resolved* configuration, so the channel is invisible.
    RunSpec c = storeSpec("gcc", 3100);
    c.overrides.setUint("integrity.supervisor.attempts", 2);
    Config overlay;
    overlay.setUint("integrity.watchdog.window", 123456);
    setRunOverlay(overlay);
    store::Fingerprint viaOverlay = store::fingerprintRun(c, policy);
    clearRunOverlay();
    EXPECT_EQ(viaOverlay, store::fingerprintRun(a, policy));

    // And with the overlay cleared the fingerprint must differ: the
    // cache key reflects the overlays in force at plan time.
    EXPECT_NE(store::fingerprintRun(c, policy),
              store::fingerprintRun(a, policy));
}

namespace
{

/** Every spec of @p plan batch-fingerprinted must equal its own
 *  fingerprintRun(). */
void
expectBatchMatchesSingle(const CampaignPlan &plan, const std::string &what)
{
    std::vector<const RunSpec *> specs;
    for (const PlannedRun &cell : plan.runs())
        specs.push_back(&cell.spec);
    const std::vector<store::Fingerprint> batch =
        store::fingerprintRuns(specs);
    ASSERT_EQ(batch.size(), specs.size()) << what;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(batch[i], store::fingerprintRun(*specs[i], RetryPolicy{}))
            << what << " cell " << i;
    }
}

/** The plans of Figures 4 to 9 and of the DRA and recovery ablations,
 *  recorded without running a cell. */
std::vector<CampaignPlan>
figurePlans()
{
    PlanRecorder recorder;
    figure4(3000);
    figure5(3000);
    figure6(3000, {"turb3d", "swim"});
    figure8(3000);
    figure9(3000);
    const std::vector<std::string> w = benchutil::ablationWorkloads();
    ablationCrcSize(3000, w);
    ablationCrcRepl(3000, w);
    ablationInsertionBits(3000, w);
    ablationFwdDepth(3000, w);
    ablationCrcTimeout(3000, w);
    ablationLoadRecovery(3000, w);
    ablationKillShadow(3000, w);
    ablationMemDep(3000, w);
    return recorder.plans();
}

} // anonymous namespace

TEST_F(StoreEnv, BatchFingerprintsEqualSingleOnEveryFigurePlan)
{
    const std::vector<CampaignPlan> plans = figurePlans();
    ASSERT_EQ(plans.size(), 13u);
    std::size_t cells = 0;
    for (std::size_t p = 0; p < plans.size(); ++p) {
        cells += plans[p].size();
        expectBatchMatchesSingle(plans[p], "plan " + std::to_string(p));
    }
    EXPECT_GT(cells, 300u);

    // The same plans with a process overlay in force: it joins every
    // cell's configuration prefix.
    Config overlay;
    overlay.setUint("integrity.watchdog.window", 54321);
    overlay.setUint("core.iq.entries", 96);
    setRunOverlay(overlay);
    for (std::size_t p = 0; p < plans.size(); ++p)
        expectBatchMatchesSingle(plans[p], "overlay plan " + std::to_string(p));
    clearRunOverlay();
}

TEST_F(StoreEnv, BatchFingerprintsEqualSingleOnMixedRows)
{
    // Rows interleaved and repeated, a two-thread workload, budgets
    // that differ inside a row, and configurations shared across rows
    // and repeated within one.
    Config base5;
    setBasePipeline(base5, 5);
    Config dra7;
    setDraPipeline(dra7, 7);
    const std::vector<Config> columns = {base5, dra7, Config{}, base5};
    CampaignPlan plan;
    for (const char *w : {"gcc", "apsi-swim", "gcc", "swim", "swim",
                          "apsi-swim", "gcc"}) {
        for (std::size_t c = 0; c < columns.size(); ++c)
            plan.add(resolveWorkload(w), columns[c], 3000 + (c == 2));
    }
    for (std::size_t n = 1; n <= 9; ++n)
        plan.add(resolveWorkload("m88-comp"), columns[n % 2], 4000);
    RunSpec warm = plan.at(0).spec;
    warm.warmupOps = 1000;
    plan.add(warm);
    RunSpec capped = plan.at(0).spec;
    capped.maxCycles = 123456;
    plan.add(capped);
    expectBatchMatchesSingle(plan, "mixed");

    // +0.0 and -0.0 compare equal but hash different bytes: a row must
    // not fold them together.
    CampaignPlan zeros;
    RunSpec pos = storeSpec("swim", 3000);
    pos.workload.threads[0].barrierFrac = 0.0;
    RunSpec neg = pos;
    neg.workload.threads[0].barrierFrac = -0.0;
    ASSERT_TRUE(pos.workload == neg.workload);
    for (const RunSpec *s : {&pos, &neg, &pos, &neg, &neg, &pos})
        zeros.add(*s);
    expectBatchMatchesSingle(zeros, "signed zeros");
    EXPECT_NE(store::fingerprintRun(pos, RetryPolicy{}),
              store::fingerprintRun(neg, RetryPolicy{}));

    Config overlay;
    overlay.setUint("integrity.watchdog.window", 777);
    setRunOverlay(overlay);
    expectBatchMatchesSingle(plan, "mixed under an overlay");
    clearRunOverlay();

    EXPECT_TRUE(store::fingerprintRuns({}).empty());
}

TEST_F(StoreEnv, FingerprintCoversEveryResultShapingInput)
{
    const RetryPolicy policy;
    const RunSpec base = storeSpec("gcc", 3100);

    std::vector<store::Fingerprint> fps;
    fps.push_back(store::fingerprintRun(base, policy));

    RunSpec cfgChange = base;
    cfgChange.overrides.setUint("integrity.watchdog.window", 999999);
    fps.push_back(store::fingerprintRun(cfgChange, policy));

    RunSpec seedChange = base;
    ASSERT_FALSE(seedChange.workload.threads.empty());
    seedChange.workload.threads[0].seed += 1;
    fps.push_back(store::fingerprintRun(seedChange, policy));

    RunSpec opsChange = base;
    opsChange.totalOps += 1;
    fps.push_back(store::fingerprintRun(opsChange, policy));

    RunSpec warmupChange = base;
    warmupChange.warmupOps += 1;
    fps.push_back(store::fingerprintRun(warmupChange, policy));

    RunSpec budgetChange = base;
    budgetChange.maxCycles += 1;
    fps.push_back(store::fingerprintRun(budgetChange, policy));

    RunSpec workloadChange = base;
    workloadChange.workload = resolveWorkload("swim");
    fps.push_back(store::fingerprintRun(workloadChange, policy));

    for (std::size_t i = 0; i < fps.size(); ++i) {
        for (std::size_t j = i + 1; j < fps.size(); ++j) {
            EXPECT_NE(fps[i], fps[j])
                << "variant " << i << " aliases variant " << j;
        }
    }
}

TEST(StoreRecord, RoundTripPreservesEveryField)
{
    const store::Fingerprint fp{0xdeadbeefcafef00dull, 0x42ull};
    const RunResult in = sampleResult(7);
    const std::string bytes = store::encodeRecord(fp, in);
    ASSERT_GE(bytes.size(), store::kRecordHeaderBytes);

    RunResult out;
    ASSERT_TRUE(store::decodeRecord(bytes, fp, out));
    EXPECT_EQ(out.workloadLabel, in.workloadLabel);
    EXPECT_EQ(out.pipeLabel, in.pipeLabel);
    EXPECT_EQ(out.cycles, in.cycles);
    EXPECT_EQ(out.retired, in.retired);
    EXPECT_EQ(out.ipc, in.ipc);
    EXPECT_FALSE(out.failed);
    EXPECT_TRUE(out.error.empty());
    EXPECT_EQ(out.operandSourceFractions, in.operandSourceFractions);
    EXPECT_EQ(out.operandSourceCounts, in.operandSourceCounts);
    EXPECT_EQ(out.gapCdf, in.gapCdf);
    EXPECT_EQ(out.scalars, in.scalars);

    // A failed result round-trips too (the store never persists one,
    // but the format must not depend on that policy).
    RunResult wedged;
    wedged.workloadLabel = "wedge";
    wedged.pipeLabel = "5_5";
    wedged.failed = true;
    wedged.error = "watchdog: no retirement in window";
    const std::string wbytes = store::encodeRecord(fp, wedged);
    RunResult wout;
    ASSERT_TRUE(store::decodeRecord(wbytes, fp, wout));
    EXPECT_TRUE(wout.failed);
    EXPECT_EQ(wout.error, wedged.error);
}

TEST(StoreRecord, RejectsTamperTruncationAndWrongFingerprint)
{
    const store::Fingerprint fp{0x1111111111111111ull, 0x2222ull};
    const std::string bytes = store::encodeRecord(fp, sampleResult(1));
    RunResult out;

    // Wrong fingerprint: a renamed/misplaced record must not decode.
    EXPECT_FALSE(store::decodeRecord(
        bytes, store::Fingerprint{0x1111111111111111ull, 0x2223ull},
        out));

    // Truncations: shorter than a header, and one byte short.
    EXPECT_FALSE(store::decodeRecord(
        bytes.substr(0, store::kRecordHeaderBytes - 1), fp, out));
    EXPECT_FALSE(store::decodeRecord(
        bytes.substr(0, bytes.size() - 1), fp, out));

    // Trailing garbage: size field no longer matches the buffer.
    EXPECT_FALSE(store::decodeRecord(bytes + "x", fp, out));

    // Payload bit-rot: CRC catches it.
    std::string corrupt = bytes;
    corrupt[store::kRecordHeaderBytes + 3] ^= 0x10;
    EXPECT_FALSE(store::decodeRecord(corrupt, fp, out));

    // Damaged magic.
    std::string badMagic = bytes;
    badMagic[0] ^= 0x01;
    EXPECT_FALSE(store::decodeRecord(badMagic, fp, out));
    store::Fingerprint peeked;
    std::uint32_t schema = 0;
    EXPECT_FALSE(store::peekRecord(badMagic, peeked, schema));

    // The header peek works on a valid record.
    ASSERT_TRUE(store::peekRecord(bytes, peeked, schema));
    EXPECT_EQ(peeked, fp);
    EXPECT_EQ(schema, store::kSchemaVersion);
}

TEST(StoreRecord, SchemaVersionBumpInvalidates)
{
    const store::Fingerprint fp{0xabcdull, 0xef01ull};
    std::string bytes = store::encodeRecord(fp, sampleResult(2));

    // Patch the schema field (offset 4, little-endian u32) to the next
    // version: the record must read as a miss, not as data.
    bytes[4] = static_cast<char>(bytes[4] + 1);
    RunResult out;
    EXPECT_FALSE(store::decodeRecord(bytes, fp, out));

    store::Fingerprint peeked;
    std::uint32_t schema = 0;
    ASSERT_TRUE(store::peekRecord(bytes, peeked, schema));
    EXPECT_EQ(schema, store::kSchemaVersion + 1);
}

// On-disk compatibility pins. Every check below fails if any stored
// byte or any fingerprint moves: stores and journals written by older
// binaries must keep replaying.

namespace
{

/** The store's CRC-32 the simple way, one table-free bit loop per
 *  byte: the reference the production slicing-by-8 must equal. */
std::uint32_t
bytewiseCrc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

/** A schema-v2 record of a failed (timeout) result, as the original
 *  byte-at-a-time codec wrote it under fingerprint
 *  0011223344556677 8899aabbccddeeff. */
constexpr unsigned char kSchemaV2Record[] = {
    0x4c, 0x53, 0x52, 0x31, 0x02, 0x00, 0x00, 0x00, 0x77, 0x66, 0x55, 0x44,
    0x33, 0x22, 0x11, 0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88,
    0x17, 0x01, 0x00, 0x00, 0x52, 0xcc, 0x98, 0x06, 0x09, 0x00, 0x00, 0x00,
    0x61, 0x70, 0x73, 0x69, 0x2d, 0x73, 0x77, 0x69, 0x6d, 0x05, 0x00, 0x00,
    0x00, 0x44, 0x52, 0x41, 0x20, 0x37, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00,
    0x00, 0x00, 0x2b, 0x4e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x55, 0x55,
    0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 0x01, 0x03, 0x00, 0x00, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x64, 0x65, 0x61, 0x64, 0x6c, 0x69, 0x6e, 0x65, 0x06,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb0, 0x3f, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x80, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x20, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9c,
    0x75, 0x00, 0x88, 0x3c, 0xe4, 0x37, 0x7e, 0x03, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x03,
    0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x72, 0x65, 0x2e,
    0x72, 0x65, 0x74, 0x69, 0x72, 0x65, 0x64, 0x00, 0x00, 0x00, 0x00, 0xc0,
    0x8a, 0xd3, 0x40, 0x0c, 0x00, 0x00, 0x00, 0x64, 0x72, 0x61, 0x2e, 0x63,
    0x72, 0x63, 0x5f, 0x68, 0x69, 0x74, 0x73, 0x9a, 0x99, 0x99, 0x99, 0x99,
    0x99, 0xb9, 0x3f, 0x14, 0x00, 0x00, 0x00, 0x6d, 0x65, 0x6d, 0x2e, 0x6c,
    0x6f, 0x61, 0x64, 0x5f, 0x6d, 0x69, 0x73, 0x73, 0x5f, 0x65, 0x76, 0x65,
    0x6e, 0x74, 0x73, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1e, 0xc0,
};

/** The fields the persisted part of two results must agree on,
 *  doubles compared bit for bit. */
void
expectSamePersisted(const RunResult &a, const RunResult &b)
{
    auto bits = [](const std::vector<double> &v) {
        std::vector<std::uint64_t> out;
        for (double d : v)
            out.push_back(std::bit_cast<std::uint64_t>(d));
        return out;
    };
    EXPECT_EQ(a.workloadLabel, b.workloadLabel);
    EXPECT_EQ(a.pipeLabel, b.pipeLabel);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ipc),
              std::bit_cast<std::uint64_t>(b.ipc));
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.failKind, b.failKind);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(bits(a.operandSourceFractions),
              bits(b.operandSourceFractions));
    EXPECT_EQ(bits(a.operandSourceCounts), bits(b.operandSourceCounts));
    EXPECT_EQ(bits(a.gapCdf), bits(b.gapCdf));
    EXPECT_EQ(a.scalars, b.scalars);
}

} // anonymous namespace

TEST(StoreCompat, Crc32CheckValue)
{
    const char check[] = "123456789";
    EXPECT_EQ(store::crc32(check, 9), 0xcbf43926u);
    EXPECT_EQ(store::crc32(check, 0), 0u);
}

TEST(StoreCompat, Crc32MatchesBytewiseReference)
{
    // Every length 0..4096, each at start offset length % 8, plus every
    // offset 0..7 for the short lengths where the slicing loop's head
    // and tail dominate.
    std::mt19937_64 rng(0x5eed);
    std::vector<unsigned char> buf(4096 + 8);
    for (unsigned char &c : buf)
        c = static_cast<unsigned char>(rng());
    for (std::size_t len = 0; len <= 4096; ++len) {
        const unsigned char *p = buf.data() + len % 8;
        ASSERT_EQ(store::crc32(p, len), bytewiseCrc32(p, len))
            << "length " << len << " at offset " << len % 8;
    }
    for (std::size_t len = 0; len <= 64; ++len) {
        for (std::size_t off = 0; off < 8; ++off) {
            const unsigned char *p = buf.data() + off;
            ASSERT_EQ(store::crc32(p, len), bytewiseCrc32(p, len))
                << "length " << len << " at offset " << off;
        }
    }
}

TEST(StoreCompat, Crc32FoldMatchesTables)
{
    // The carry-less-multiply fold against the slicing-by-8 tables on
    // every length 0..4096 at every start offset 0..15: short buffers,
    // the 64-byte threshold, every 16-byte tail and misaligned loads.
    if (!store::crc32Folds())
        GTEST_SKIP() << "this CPU has no PCLMULQDQ; crc32() is the tables";
    std::mt19937_64 rng(0xc1c1);
    std::vector<unsigned char> buf(4096 + 16);
    for (unsigned char &c : buf)
        c = static_cast<unsigned char>(rng());
    for (std::size_t off = 0; off < 16; ++off) {
        for (std::size_t len = 0; len <= 4096; ++len) {
            const unsigned char *p = buf.data() + off;
            ASSERT_EQ(store::crc32(p, len), store::crc32Tables(p, len))
                << "length " << len << " at offset " << off;
        }
    }
}

TEST_F(StoreEnv, FingerprintsOfFixedSpecsArePinned)
{
    RunSpec base;
    base.workload = resolveWorkload("gcc");
    base.totalOps = 5000;
    base.warmupOps = 800;
    setBasePipeline(base.overrides, 5);
    EXPECT_EQ(store::fingerprintRun(base, RetryPolicy{}).hex(),
              "8e42ba61b86c52f255f302dd61f9b388");

    // Two threads, the DRA and a fractional knob.
    RunSpec smt;
    smt.workload = resolveWorkload("apsi-swim");
    smt.totalOps = 20000;
    setDraPipeline(smt.overrides, 7);
    smt.overrides.setDouble("integrity.fault.load_delay", 0.25);
    EXPECT_EQ(store::fingerprintRun(smt, RetryPolicy{}).hex(),
              "8225e5a550a43bf6ef5c05c0f6d865fe");
}

TEST(StoreCompat, SchemaV2RecordDecodesAndReencodesByteIdentically)
{
    const std::string bytes(std::begin(kSchemaV2Record),
                            std::end(kSchemaV2Record));
    const store::Fingerprint fp{0x0011223344556677ull,
                                0x8899aabbccddeeffull};
    RunResult out;
    ASSERT_TRUE(store::decodeRecord(bytes, fp, out));

    RunResult expect;
    expect.workloadLabel = "apsi-swim";
    expect.pipeLabel = "DRA 7";
    expect.cycles = 0x0123456789ull;
    expect.retired = 20011;
    expect.ipc = 1.0 / 3.0;
    expect.failed = true;
    expect.failKind = FailKind::Timeout;
    expect.error = "deadline";
    expect.operandSourceFractions = {0.5, 0.25, 0.125, 0.0625, 0.0, -0.0};
    expect.operandSourceCounts = {8, 4, 2, 1, 0, 1e300};
    expect.gapCdf = {0.0, 0.5, 1.0};
    expect.scalars["core.retired"] = 20011;
    expect.scalars["dra.crc_hits"] = 0.1;
    expect.scalars["mem.load_miss_events"] = -7.5;
    expectSamePersisted(out, expect);

    EXPECT_EQ(store::encodeRecord(fp, out), bytes);
    EXPECT_EQ(store::encodeRecord(fp, expect), bytes);
}

TEST_F(StoreEnv, RepeatedFingerprintsKeepResolveCounts)
{
    // One plan that reaches every tier, each fingerprint repeated:
    // A from the journal, B/C/E from the store, D from the memo, F
    // simulated. Each repeat counts as its first occurrence's tier
    // always has: journal repeats as resumed, the rest as memo hits.
    const fs::path root = freshDir("store_repeats");
    const std::string store_dir = (root / "store").string();
    const std::string journal_dir = (root / "journal").string();
    auto cell = [](const char *workload, unsigned rf) {
        RunSpec spec = storeSpec(workload, 2000);
        setBasePipeline(spec.overrides, rf);
        return spec;
    };
    const RunSpec a = cell("gcc", 3), b = cell("gcc", 5), c = cell("swim", 3),
                  d = cell("swim", 5), e = cell("go", 3), f = cell("go", 5);
    auto plan_of = [](std::initializer_list<const RunSpec *> specs) {
        CampaignPlan plan;
        for (const RunSpec *s : specs)
            plan.add(*s, "");
        return plan;
    };
    const CampaignPlan plan = plan_of(
        {&a, &b, &a, &c, &d, &e, &b, &d, &e, &a, &c, &e, &f, &f});
    auto fresh_memo = [&] {
        store::resetProcessStore();
        store::setStorePath(store_dir);
    };

    // Reference: every cell simulated, no cache of any kind.
    const std::vector<RunResult> cold = runCampaign(plan, RetryPolicy{}, 1);

    // The store learns B and C.
    fresh_memo();
    runCampaign(plan_of({&b, &c}), RetryPolicy{}, 1);

    // A journaled pass over the plan simulates A, D, E and F in that
    // order (jobs = 1); keep only A's entry, as if it was killed there.
    fresh_memo();
    store::setJournalPath(journal_dir);
    runCampaign(plan, RetryPolicy{}, 1);
    store::setJournalPath("");
    const std::string journal =
        (fs::path(journal_dir) /
         (fingerprintPlan(plan).hex() + ".lsj"))
            .string();
    {
        const std::string bytes = readFile(journal);
        ASSERT_GT(bytes.size(), store::kJournalHeaderBytes + 4);
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i)
            len |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                       bytes[store::kJournalHeaderBytes + i]))
                   << (8 * i);
        fs::resize_file(journal, store::kJournalHeaderBytes + 4 + len);
    }

    // The memo learns D; F leaves the store.
    fresh_memo();
    runCampaign(plan_of({&d}), RetryPolicy{}, 1);
    fs::remove(store::processStore()->recordPath(
        store::fingerprintRun(f, RetryPolicy{})));

    store::setJournalPath(journal_dir);
    const std::vector<RunResult> warm = runCampaign(plan, RetryPolicy{}, 1);
    store::setJournalPath("");
    const CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.resumed, 3u);
    EXPECT_EQ(t.store.hits, 3u);
    EXPECT_EQ(t.memoHits, 7u);
    EXPECT_EQ(t.simulated, 1u);
    // One store probe per distinct fingerprint: F's repeat waits for F
    // instead of probing the store a second time.
    EXPECT_EQ(t.store.misses, 1u);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSamePersisted(warm[i], cold[i]);
    }
}

TEST_F(StoreEnv, ResultStoreLookupInsertAndCorruptionAsMiss)
{
    const fs::path dir = freshDir("lsr_basic");
    store::ResultStore st(dir.string());
    const store::Fingerprint fp{0x77ull << 56, 0x1234ull};

    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().misses, 1u);
    EXPECT_EQ(st.stats().crcRejects, 0u);

    const RunResult in = sampleResult(3);
    ASSERT_TRUE(st.insert(fp, in));
    EXPECT_EQ(st.stats().inserts, 1u);
    EXPECT_GT(st.stats().bytesWritten, 0u);
    ASSERT_TRUE(fs::exists(st.recordPath(fp)));

    auto hit = st.lookup(fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ipc, in.ipc);
    EXPECT_EQ(st.stats().hits, 1u);
    EXPECT_GT(st.stats().bytesRead, 0u);

    // Payload corruption: a miss plus a CRC reject, never bad data.
    flipByte(st.recordPath(fp), store::kRecordHeaderBytes + 5);
    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().crcRejects, 1u);
    EXPECT_EQ(st.stats().misses, 2u);

    // A schema bump on disk reads as a miss the same way.
    ASSERT_TRUE(st.insert(fp, in));
    {
        std::string bytes = readFile(st.recordPath(fp));
        bytes[4] = static_cast<char>(bytes[4] + 1);
        writeFile(st.recordPath(fp), bytes);
    }
    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().crcRejects, 2u);

    // Truncation below a header too.
    ASSERT_TRUE(st.insert(fp, in));
    writeFile(st.recordPath(fp), "short");
    EXPECT_FALSE(st.lookup(fp).has_value());
    EXPECT_EQ(st.stats().crcRejects, 3u);

    // Re-insert heals the store.
    ASSERT_TRUE(st.insert(fp, in));
    EXPECT_TRUE(st.lookup(fp).has_value());
}

TEST_F(StoreEnv, CampaignMemoDeduplicatesWithoutStoreDir)
{
    ASSERT_FALSE(store::storeConfigured());

    CampaignPlan plan;
    plan.add(storeSpec("gcc", 2300), "a");
    plan.add(storeSpec("gcc", 2300), "a-again"); // identical plan point
    plan.add(storeSpec("swim", 2300), "b");

    std::vector<RunResult> results = runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.runs, 3u);
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.memoHits, 1u);
    EXPECT_EQ(t.store.hits + t.store.misses + t.store.inserts, 0u);

    ASSERT_FALSE(results[0].failed);
    EXPECT_EQ(results[0].ipc, results[1].ipc);
    EXPECT_EQ(results[0].cycles, results[1].cycles);
    EXPECT_EQ(results[0].workloadLabel, results[1].workloadLabel);

    // A second campaign over the same plan is answered entirely from
    // the in-process memo.
    runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.memoHits, 3u);
}

TEST_F(StoreEnv, WarmStoreRerunIsByteIdenticalAtAnyJobs)
{
    const fs::path dir = freshDir("lsr_warm");
    store::setStorePath(dir.string());

    CampaignPlan plan = fourCellPlan(2400);

    // Cold, serial.
    std::string cold = renderFourCells(runCampaign(plan, {}, 1));
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 4u);
    EXPECT_EQ(t.store.misses, 4u);
    EXPECT_EQ(t.store.inserts, 4u);
    EXPECT_EQ(t.store.hits, 0u);
    EXPECT_GT(t.store.bytesWritten, 0u);

    // Warm, parallel: drop the memo so every answer must come off
    // disk, then demand zero simulations and byte-identical output.
    store::processMemo().clear();
    std::string warm = renderFourCells(runCampaign(plan, {}, 8));
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_EQ(t.store.hits, 4u);
    EXPECT_EQ(t.store.misses, 0u);
    EXPECT_EQ(t.store.inserts, 0u);
    EXPECT_EQ(warm, cold);
}

TEST_F(StoreEnv, CorruptRecordDegradesToOneResimulation)
{
    const fs::path dir = freshDir("lsr_corrupt");
    store::setStorePath(dir.string());

    CampaignPlan plan = fourCellPlan(2450);
    std::string cold = renderFourCells(runCampaign(plan, {}, 1));

    // Rot one record on disk.
    const store::Fingerprint fp =
        store::fingerprintRun(plan.at(0).spec, RetryPolicy{});
    ASSERT_NE(store::processStore(), nullptr);
    const std::string path = store::processStore()->recordPath(fp);
    ASSERT_TRUE(fs::exists(path));
    flipByte(path, store::kRecordHeaderBytes + 2);

    // The damaged cell re-simulates; the figure is still identical,
    // and the fresh result heals the store.
    store::processMemo().clear();
    std::string healed = renderFourCells(runCampaign(plan, {}, 4));
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 1u);
    EXPECT_EQ(t.store.hits, 3u);
    EXPECT_EQ(t.store.crcRejects, 1u);
    EXPECT_EQ(t.store.inserts, 1u);
    EXPECT_EQ(healed, cold);

    const store::VerifyReport report = store::verifyStore(dir.string());
    EXPECT_EQ(report.records, 4u);
    EXPECT_EQ(report.corrupt, 0u);
}

TEST_F(StoreEnv, FailedRunsMemoizedButNeverPersisted)
{
    const fs::path dir = freshDir("lsr_failsoft");
    store::setStorePath(dir.string());

    CampaignPlan plan;
    RunSpec wedge = storeSpec("gcc", 2600);
    wedge.overrides = wedgeConfig();
    plan.add(std::move(wedge), "wedge");
    plan.add(storeSpec("swim", 2600), "healthy");

    runCampaign(plan, {}, 2);
    CampaignTelemetry t = lastCampaignTelemetry();
    EXPECT_EQ(t.failures, 1u);
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.store.inserts, 1u); // only the healthy cell

    const store::Fingerprint wedgeFp =
        store::fingerprintRun(plan.at(0).spec, RetryPolicy{});
    EXPECT_FALSE(
        fs::exists(store::processStore()->recordPath(wedgeFp)));

    // Within the process the wedge answer comes from the memo...
    std::vector<RunResult> again = runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 0u);
    EXPECT_TRUE(again[0].failed);

    // ...but a "new binary" (cleared memo) retries it against the
    // store and simulates only the wedge again.
    store::processMemo().clear();
    runCampaign(plan, {}, 2);
    t = lastCampaignTelemetry();
    EXPECT_EQ(t.simulated, 1u);
    EXPECT_EQ(t.store.hits, 1u);
    EXPECT_EQ(t.failures, 1u);
}

TEST_F(StoreEnv, TraceCollectionBypassesMemoAndStore)
{
    const fs::path dir = freshDir("lsr_trace");
    store::setStorePath(dir.string());

    CampaignPlan plan;
    plan.add(storeSpec("gcc", 2700), "t0");
    plan.add(storeSpec("swim", 2700), "t1");

    runCampaign(plan, {}, 1); // warm everything
    ASSERT_EQ(lastCampaignTelemetry().store.inserts, 2u);

    trace::setCollection(true);
    runCampaign(plan, {}, 1);
    CampaignTelemetry t = lastCampaignTelemetry();
    trace::setCollection(false);

    // Both caches are warm, yet every cell simulated: traces must come
    // from real executions, and nothing is inserted either.
    EXPECT_EQ(t.simulated, 2u);
    EXPECT_EQ(t.memoHits, 0u);
    EXPECT_EQ(t.store.hits + t.store.misses + t.store.inserts, 0u);

    std::vector<trace::RunTrace> collected = trace::takeCollectedRuns();
    ASSERT_EQ(collected.size(), 2u);
    EXPECT_FALSE(collected[0].events.empty());
    EXPECT_EQ(store::scanStore(dir.string()).size(), 2u);
}

TEST_F(StoreEnv, VerifyReportsCorruptionAndGcEvictsInvalidThenOldest)
{
    const fs::path dir = freshDir("lsr_gc");
    store::ResultStore st(dir.string());

    // Four records in distinct fan-out directories.
    std::vector<store::Fingerprint> fps;
    for (std::uint64_t i = 0; i < 4; ++i) {
        fps.push_back(store::Fingerprint{(i + 1) << 56 | 0x7ull,
                                         0x1000 + i});
        ASSERT_TRUE(st.insert(fps.back(),
                              sampleResult(static_cast<std::uint32_t>(i))));
    }

    // scanStore lists them sorted by fingerprint.
    auto entries = store::scanStore(dir.string());
    ASSERT_EQ(entries.size(), 4u);
    for (std::size_t i = 1; i < entries.size(); ++i)
        EXPECT_TRUE(entries[i - 1].fp < entries[i].fp);
    for (const store::StoreEntry &e : entries)
        EXPECT_TRUE(e.valid);

    store::VerifyReport clean = store::verifyStore(dir.string());
    EXPECT_EQ(clean.records, 4u);
    EXPECT_EQ(clean.corrupt, 0u);

    // Corrupt record 3; age records 0 < 1 < 2 by mtime.
    flipByte(st.recordPath(fps[3]), store::kRecordHeaderBytes + 1);
    const auto now = fs::last_write_time(st.recordPath(fps[2]));
    fs::last_write_time(st.recordPath(fps[0]),
                        now - std::chrono::hours(3));
    fs::last_write_time(st.recordPath(fps[1]),
                        now - std::chrono::hours(2));

    store::VerifyReport damaged = store::verifyStore(dir.string());
    EXPECT_EQ(damaged.corrupt, 1u);
    ASSERT_EQ(damaged.corruptPaths.size(), 1u);
    EXPECT_EQ(damaged.corruptPaths[0], st.recordPath(fps[3]));

    // Budget for exactly the two newest valid records: gc removes the
    // corrupt record first, then the oldest valid one.
    const std::uint64_t budget =
        fs::file_size(st.recordPath(fps[1])) +
        fs::file_size(st.recordPath(fps[2]));
    store::GcReport gc = store::gcStore(dir.string(), budget);
    EXPECT_EQ(gc.scanned, 4u);
    EXPECT_EQ(gc.removed, 2u);
    EXPECT_LE(gc.bytesAfter, budget);
    EXPECT_FALSE(fs::exists(st.recordPath(fps[0])));
    EXPECT_FALSE(fs::exists(st.recordPath(fps[3])));
    EXPECT_TRUE(fs::exists(st.recordPath(fps[1])));
    EXPECT_TRUE(fs::exists(st.recordPath(fps[2])));

    // gc to zero empties the store. It leaves no record and no lock
    // file; only fan-out directories, which gc never removes, may stay.
    store::GcReport drain = store::gcStore(dir.string(), 0);
    EXPECT_EQ(drain.removed, 2u);
    EXPECT_EQ(drain.bytesAfter, 0u);
    EXPECT_TRUE(store::scanStore(dir.string()).empty());
    EXPECT_FALSE(fs::exists(dir / ".lock"));
    for (const fs::directory_entry &entry :
         fs::recursive_directory_iterator(dir))
        EXPECT_TRUE(entry.is_directory()) << entry.path();
}

TEST(StoreBenchFlag, StoreWithoutPathExitsWithUsage)
{
    char bench[] = "bench";
    char flagBare[] = "--store";
    // A trailing bare --store is caught by the generic flag parser,
    // --store= by the store-specific check; both are usage errors.
    char *bare[] = {bench, flagBare};
    EXPECT_EXIT(benchutil::parseCli(2, bare),
                ::testing::ExitedWithCode(2), "--store needs a");

    char flagEq[] = "--store=";
    char *eq[] = {bench, flagEq};
    EXPECT_EXIT(benchutil::parseCli(2, eq),
                ::testing::ExitedWithCode(2),
                "--store needs a directory path");
}

TEST(StoreBenchFlag, StoreValueParsesInBothSpellings)
{
    char bench[] = "bench";
    char flag[] = "--store";
    char dir[] = "/tmp/lsr-cli";
    char *split[] = {bench, flag, dir};
    EXPECT_EQ(benchutil::parseCli(3, split).opts.storePath,
              "/tmp/lsr-cli");

    char joined[] = "--store=/tmp/lsr-cli2";
    char *eq[] = {bench, joined};
    EXPECT_EQ(benchutil::parseCli(2, eq).opts.storePath,
              "/tmp/lsr-cli2");
}

// ---------------------------------------------------------------------------
// Concurrent-writer hardening: several campaign processes may be
// inserting into the same store directory that a maintenance gc is
// sweeping, with no lock between them. Every acknowledged insert must
// stay durable: gc may evict by policy, but it must never tear an
// in-flight write, which it cannot, since it removes no directory.

TEST_F(StoreEnv, ConcurrentInsertersSurviveLiveGc)
{
    const fs::path dir = freshDir("store_gc_race");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;

    std::atomic<bool> stop_gc{false};
    std::atomic<int> failed_inserts{0};
    std::atomic<int> writers_inserting{kThreads};
    std::atomic<int> sweeps{0};
    std::atomic<int> sweeps_during_inserts{0};

    // Each writer opens its own handle, the way separate campaign
    // processes would.
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            store::ResultStore local(dir.string());
            for (int i = 0; i < kPerThread; ++i) {
                // Halfway through, wait for a gc sweep to finish, so
                // at least one sweep provably overlaps the inserts
                // however the threads get scheduled.
                while (i == kPerThread / 2 && sweeps.load() == 0)
                    std::this_thread::yield();
                // Each insert gets its own fan-out directory (the top
                // byte of hi), so each one creates a directory a gc
                // that swept empty directories could remove.
                const store::Fingerprint fp{
                    static_cast<std::uint64_t>(t * kPerThread + i) << 56 |
                        (static_cast<std::uint64_t>(t) + 1),
                    static_cast<std::uint64_t>(i) + 1};
                if (!local.insert(fp, sampleResult(
                        static_cast<std::uint32_t>(t * kPerThread + i))))
                    failed_inserts.fetch_add(1);
            }
            writers_inserting.fetch_sub(1);
        });
    }
    std::thread gc([&] {
        // Generous budget: this gc evicts nothing valid, so every
        // insert must survive it. The pause keeps the thread from
        // spinning on back-to-back full CRC scans.
        while (!stop_gc.load()) {
            store::gcStore(dir.string(), 1ull << 40);
            // Read before publishing the sweep: no writer can finish
            // until the first sweep is published.
            const bool overlapped = writers_inserting.load() > 0;
            sweeps.fetch_add(1);
            if (overlapped)
                sweeps_during_inserts.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    for (std::thread &w : writers)
        w.join();
    stop_gc.store(true);
    gc.join();

    EXPECT_EQ(failed_inserts.load(), 0);
    EXPECT_GE(sweeps_during_inserts.load(), 1);

    // Every acknowledged insert is durable and intact (full CRC pass).
    store::ResultStore reader(dir.string());
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            const store::Fingerprint fp{
                static_cast<std::uint64_t>(t * kPerThread + i) << 56 |
                    (static_cast<std::uint64_t>(t) + 1),
                static_cast<std::uint64_t>(i) + 1};
            EXPECT_TRUE(reader.lookup(fp).has_value())
                << "lost record " << fp.hex();
        }
    }
    const store::VerifyReport verify = store::verifyStore(dir.string());
    EXPECT_EQ(verify.records,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(verify.corrupt, 0u);
}

TEST_F(StoreEnv, SummaryJsonSharesOneSchemaAcrossCliAndServer)
{
    const fs::path dir = freshDir("store_stat_json");
    store::ResultStore writer(dir.string());
    ASSERT_TRUE(writer.insert(store::Fingerprint{1, 1}, sampleResult(1)));
    ASSERT_TRUE(writer.insert(store::Fingerprint{2, 2}, sampleResult(2)));

    auto invalid = [](const std::vector<store::StoreEntry> &entries) {
        return std::count_if(entries.begin(), entries.end(),
                             [](const store::StoreEntry &e) {
                                 return !e.valid;
                             });
    };
    const auto clean = store::scanStore(dir.string());
    EXPECT_EQ(clean.size(), 2u);
    EXPECT_EQ(invalid(clean), 0);

    // A header-invalid file is counted, not silently skipped: plain
    // `loopsim-store stat` reports it as corrupt.
    writeFile((dir / "00" / "junk.lsr").string(), "not a record");
    const auto dirty = store::scanStore(dir.string());
    EXPECT_EQ(dirty.size(), 3u);
    EXPECT_EQ(invalid(dirty), 1);
}
