/**
 * @file
 * Tests for the on-disk trace format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "workload/generator.hh"
#include "workload/trace_file.hh"

using namespace loopsim;

namespace
{

/** Temp-file path helper; removed in the destructor. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {}
    ~TempPath() { std::remove(path.c_str()); }
    const std::string path;
};

} // anonymous namespace

TEST(TraceFile, RoundTripPreservesEverything)
{
    TempPath tmp("roundtrip.ltrc");
    SyntheticTraceGenerator gen(spec95Profile("turb3d"), 1, 3000);

    std::vector<MicroOp> original;
    {
        TraceWriter writer(tmp.path);
        MicroOp op;
        while (gen.next(op)) {
            writer.append(op);
            original.push_back(op);
        }
        writer.finish();
        EXPECT_EQ(writer.written(), 3000u);
    }

    TraceReader reader(tmp.path);
    EXPECT_EQ(reader.length(), 3000u);
    MicroOp op;
    for (const MicroOp &want : original) {
        ASSERT_TRUE(reader.next(op));
        EXPECT_EQ(op.seq, want.seq);
        EXPECT_EQ(op.tid, want.tid);
        EXPECT_EQ(op.pc, want.pc);
        EXPECT_EQ(op.opClass, want.opClass);
        EXPECT_EQ(op.src[0], want.src[0]);
        EXPECT_EQ(op.src[1], want.src[1]);
        EXPECT_EQ(op.dest, want.dest);
        EXPECT_EQ(op.effAddr, want.effAddr);
        EXPECT_EQ(op.target, want.target);
        EXPECT_EQ(op.taken, want.taken);
        EXPECT_EQ(op.forceMispredict, want.forceMispredict);
    }
    EXPECT_FALSE(reader.next(op));
}

TEST(TraceFile, ResetRestartsTheStream)
{
    TempPath tmp("reset.ltrc");
    {
        TraceWriter writer(tmp.path);
        for (int i = 0; i < 10; ++i) {
            MicroOp op;
            op.seq = i;
            op.pc = 100 + i;
            writer.append(op);
        }
    } // destructor finishes

    TraceReader reader(tmp.path);
    MicroOp op;
    ASSERT_TRUE(reader.next(op));
    EXPECT_EQ(op.pc, 100u);
    while (reader.next(op)) {
    }
    reader.reset();
    ASSERT_TRUE(reader.next(op));
    EXPECT_EQ(op.pc, 100u);
}

TEST(TraceFile, MissingFileFatal)
{
    EXPECT_THROW(TraceReader("/nonexistent/path/x.ltrc"), FatalError);
}

TEST(TraceFile, BadMagicFatal)
{
    TempPath tmp("badmagic.ltrc");
    {
        std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite("NOPE", 1, 4, f);
        std::uint32_t v = 1;
        std::uint64_t n = 0;
        std::fwrite(&v, sizeof v, 1, f);
        std::fwrite(&n, sizeof n, 1, f);
        std::fclose(f);
    }
    EXPECT_THROW(TraceReader(tmp.path), FatalError);
}

TEST(TraceFile, TruncatedBodyFatal)
{
    TempPath tmp("truncated.ltrc");
    {
        TraceWriter writer(tmp.path);
        MicroOp op;
        writer.append(op);
        writer.append(op);
        writer.finish();
    }
    // Chop off the last record's tail.
    {
        std::FILE *f = std::fopen(tmp.path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long len = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(truncate(tmp.path.c_str(), len - 8), 0);
    }
    TraceReader reader(tmp.path);
    MicroOp op;
    EXPECT_TRUE(reader.next(op));
    EXPECT_THROW(reader.next(op), FatalError);
}

/** A 4-record trace whose record 2 has @p edit applied, read to the
 *  end: the FatalError message, or "" when every record loads. */
template <class Edit>
std::string
readWithBadRecord(const std::string &name, Edit edit)
{
    TempPath tmp(name);
    {
        TraceWriter writer(tmp.path);
        for (int i = 0; i < 4; ++i) {
            MicroOp op;
            op.opClass = OpClass::IntAlu;
            op.src[0] = 1;
            op.dest = 2;
            writer.append(op);
        }
    }
    // Record 2 starts after the 16-byte header and two 40-byte records;
    // its fields are 4 u64s, then src0, src1, dest (u16), class, flags.
    {
        std::FILE *f = std::fopen(tmp.path.c_str(), "rb+");
        unsigned char rec[40];
        std::fseek(f, 16 + 2 * 40, SEEK_SET);
        EXPECT_EQ(std::fread(rec, 1, sizeof rec, f), sizeof rec);
        edit(rec);
        std::fseek(f, 16 + 2 * 40, SEEK_SET);
        std::fwrite(rec, 1, sizeof rec, f);
        std::fclose(f);
    }
    TraceReader reader(tmp.path);
    MicroOp op;
    try {
        while (reader.next(op)) {
        }
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceFile, UnknownOpClassIsAUserError)
{
    const std::string msg = readWithBadRecord(
        "badclass.ltrc", [](unsigned char *rec) { rec[38] = 200; });
    EXPECT_NE(msg.find("badclass.ltrc: record 2: unknown op class 200"),
              std::string::npos)
        << msg;
}

TEST(TraceFile, OutOfRangeRegisterIsAUserError)
{
    const std::string msg =
        readWithBadRecord("badreg.ltrc", [](unsigned char *rec) {
            const std::uint16_t src0 = 5000;
            std::memcpy(rec + 32, &src0, sizeof src0);
        });
    EXPECT_NE(msg.find("badreg.ltrc: record 2: register out of range"),
              std::string::npos)
        << msg;
    // The "no register" marker and the last real register still load.
    EXPECT_EQ(readWithBadRecord("edgereg.ltrc",
                                [](unsigned char *rec) {
                                    const std::uint16_t regs[3] = {
                                        invalidArchReg, 63, 0};
                                    std::memcpy(rec + 32, regs,
                                                sizeof regs);
                                }),
              "");
}

TEST(TraceFile, UnknownFlagBitsAreAUserError)
{
    const std::string msg = readWithBadRecord(
        "badflags.ltrc", [](unsigned char *rec) { rec[39] |= 8; });
    EXPECT_NE(msg.find("badflags.ltrc: record 2: unknown flag bits"),
              std::string::npos)
        << msg;
}

TEST(TraceFile, StoreWithADestinationIsAUserError)
{
    const std::string msg =
        readWithBadRecord("baddest.ltrc", [](unsigned char *rec) {
            rec[38] = static_cast<unsigned char>(OpClass::Store);
        });
    EXPECT_NE(msg.find("baddest.ltrc: record 2: a store writes no register"),
              std::string::npos)
        << msg;
}

TEST(TraceFile, ReaderIsATraceSource)
{
    TempPath tmp("source.ltrc");
    {
        TraceWriter writer(tmp.path);
        MicroOp op;
        op.opClass = OpClass::IntAlu;
        writer.append(op);
    }
    TraceReader reader(tmp.path);
    TraceSource &src = reader;
    MicroOp op;
    EXPECT_TRUE(src.next(op));
    // Wrong-path default implementation provides filler ops.
    src.nextWrongPath(op, 0);
    EXPECT_TRUE(op.wrongPath);
}
