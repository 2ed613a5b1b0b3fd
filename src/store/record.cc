#include "store/record.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "harness/experiment.hh"
#include "store/codec.hh"

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

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto *p = static_cast<const char *>(data);
    const auto &t = kCrcTables;
    std::uint32_t c = 0xffffffffu;
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
    return c ^ 0xffffffffu;
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
        // encodeRecord writes the map in key order, so each name
        // normally lands at the end; the hint only saves the search,
        // and an out-of-order or repeated name still inserts (or is
        // dropped) exactly as a plain emplace would.
        out.scalars.emplace_hint(out.scalars.end(), name, value);
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
