#include "store/record.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "harness/experiment.hh"
#include "store/codec.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define LOOPSIM_CRC32_CLMUL __attribute__((target("pclmul,sse4.1")))
#endif

namespace loopsim::store
{

namespace
{

/** Slicing-by-8 tables for the reflected polynomial 0xEDB88320:
 *  kCrcTables[0] is the classic byte-wise table, and kCrcTables[k][i]
 *  is the CRC register after byte i followed by k zero bytes. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/** Advance the CRC register @p c over @p n bytes by the tables. */
std::uint32_t
crc32Sliced(const char *p, std::size_t n, std::uint32_t c)
{
    const auto &t = kCrcTables;
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = loadLe<std::uint32_t>(p) ^ c;
        const std::uint32_t hi = loadLe<std::uint32_t>(p + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
            t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^
            t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xff] ^ (c >> 8);
    return c;
}

#ifdef LOOPSIM_CRC32_CLMUL
LOOPSIM_CRC32_CLMUL __m128i
load128(const char *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** @p x carried forward by the fold constants @p k, plus @p y. */
LOOPSIM_CRC32_CLMUL __m128i
fold128(__m128i x, __m128i k, __m128i y)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         y);
}

/**
 * Advance the CRC register @p c over @p n bytes (n >= 64, a multiple
 * of 16) by carry-less multiply: four 128-bit accumulators fold 64
 * bytes a step, fold into one, take the remaining 16-byte blocks, and
 * a Barrett reduction brings the 128 bits back to the 32-bit
 * register. The constants are the standard ones for the reflected
 * polynomial 0xEDB88320 (x^k mod P for the fold distances, P' and mu
 * for the reduction), as in zlib's crc32_simd. Same polynomial, same
 * register, so the result is the tables' bit for bit.
 */
LOOPSIM_CRC32_CLMUL std::uint32_t
crc32Folded(const char *p, std::size_t n, std::uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 =
        _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x1 = fold128(x1, k1k2, load128(p));
        x2 = fold128(x2, k1k2, load128(p + 16));
        x3 = fold128(x3, k1k2, load128(p + 32));
        x4 = fold128(x4, k1k2, load128(p + 48));
    }
    x1 = fold128(x1, k3k4, x2);
    x1 = fold128(x1, k3k4, x3);
    x1 = fold128(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = fold128(x1, k3k4, load128(p));

    // 128 bits to 64, then Barrett-reduce to 32.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

#endif

} // anonymous namespace

bool
crc32Folds()
{
#ifdef LOOPSIM_CRC32_CLMUL
    // Checked once, on first use.
    static const bool yes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return yes;
#else
    return false;
#endif
}

std::uint32_t
crc32Tables(const void *data, std::size_t n)
{
    return crc32Sliced(static_cast<const char *>(data), n, 0xffffffffu) ^
           0xffffffffu;
}

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const char *>(data);
    std::uint32_t c = 0xffffffffu;
#ifdef LOOPSIM_CRC32_CLMUL
    if (n >= 64 && crc32Folds()) {
        const std::size_t blocks = n & ~std::size_t{15};
        c = crc32Folded(p, blocks, c);
        p += blocks;
        n -= blocks;
    }
#endif
    return crc32Sliced(p, n, c) ^ 0xffffffffu;
}

std::string
encodeRecord(const Fingerprint &fp, const RunResult &result)
{
    std::string payload;
    Encoder enc(payload);
    enc.str(result.workloadLabel);
    enc.str(result.pipeLabel);
    enc.u64(result.cycles);
    enc.u64(result.retired);
    enc.f64(result.ipc);
    enc.boolean(result.failed);
    enc.u32(static_cast<std::uint32_t>(result.failKind));
    enc.str(result.error);
    enc.doubles(result.operandSourceFractions);
    enc.doubles(result.operandSourceCounts);
    enc.doubles(result.gapCdf);
    enc.u32(static_cast<std::uint32_t>(result.scalars.size()));
    for (const auto &[name, value] : result.scalars) {
        enc.str(name);
        enc.f64(value);
    }

    std::string record;
    record.reserve(kRecordHeaderBytes + payload.size());
    Encoder hdr(record);
    hdr.u32(kRecordMagic);
    hdr.u32(kSchemaVersion);
    hdr.u64(fp.hi);
    hdr.u64(fp.lo);
    hdr.u32(static_cast<std::uint32_t>(payload.size()));
    hdr.u32(crc32(payload.data(), payload.size()));
    record.append(payload);
    return record;
}

bool
decodeRecord(std::string_view bytes, const Fingerprint &expect,
             RunResult &result)
{
    Decoder hdr(bytes);
    std::uint32_t magic = 0;
    std::uint32_t schema = 0;
    Fingerprint fp;
    std::uint32_t payload_size = 0;
    std::uint32_t payload_crc = 0;
    if (!hdr.u32(magic) || !hdr.u32(schema) || !hdr.u64(fp.hi) ||
        !hdr.u64(fp.lo) || !hdr.u32(payload_size) ||
        !hdr.u32(payload_crc)) {
        return false;
    }
    if (magic != kRecordMagic || schema != kSchemaVersion ||
        fp != expect) {
        return false;
    }
    if (bytes.size() != kRecordHeaderBytes + payload_size)
        return false;
    const std::string_view payload = bytes.substr(kRecordHeaderBytes);
    if (crc32(payload.data(), payload.size()) != payload_crc)
        return false;

    RunResult out;
    Decoder dec(payload);
    std::uint64_t cycles = 0;
    std::uint32_t fail_kind = 0;
    std::uint32_t scalar_count = 0;
    if (!dec.str(out.workloadLabel) || !dec.str(out.pipeLabel) ||
        !dec.u64(cycles) || !dec.u64(out.retired) || !dec.f64(out.ipc) ||
        !dec.boolean(out.failed) || !dec.u32(fail_kind) ||
        !dec.str(out.error) ||
        !dec.doubles(out.operandSourceFractions) ||
        !dec.doubles(out.operandSourceCounts) ||
        !dec.doubles(out.gapCdf) || !dec.u32(scalar_count)) {
        return false;
    }
    if (fail_kind > static_cast<std::uint32_t>(FailKind::Timeout))
        return false;
    out.failKind = static_cast<FailKind>(fail_kind);
    out.cycles = cycles;
    for (std::uint32_t i = 0; i < scalar_count; ++i) {
        std::string_view name;
        double value = 0.0;
        if (!dec.view(name) || !dec.f64(value))
            return false;
        // encodeRecord writes the table in name order, so each name
        // normally appends; an out-of-order name still lands in order
        // and a repeated one is dropped (the first value wins). The
        // table grows with the names read, never with scalar_count.
        out.scalars.emplace(name, value);
    }
    if (!dec.done())
        return false;

    result = std::move(out);
    return true;
}

bool
peekRecord(std::string_view bytes, Fingerprint &fp, std::uint32_t &schema)
{
    Decoder hdr(bytes);
    std::uint32_t magic = 0;
    if (!hdr.u32(magic) || magic != kRecordMagic)
        return false;
    return hdr.u32(schema) && hdr.u64(fp.hi) && hdr.u64(fp.lo);
}

bool
readFile(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st = {};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok) {
        out.resize(static_cast<std::size_t>(st.st_size));
        std::size_t got = 0;
        while (got < out.size()) {
            const ssize_t r = ::read(fd, out.data() + got, out.size() - got);
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0) {
                ok = r == 0;
                break;
            }
            got += static_cast<std::size_t>(r);
        }
        out.resize(got);
    }
    ::close(fd);
    return ok;
}

} // namespace loopsim::store
