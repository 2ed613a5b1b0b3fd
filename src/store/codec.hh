/**
 * @file
 * The store layer's little-endian codec: Encoder appends fixed-width
 * integers, bit-pattern doubles and u32-length-prefixed blobs to a
 * string, and Decoder reads them back with bounds checks. Records,
 * journal framing and the supervisor's worker wire all use it, so
 * every byte they write has one definition; writeAll() is how the
 * journal and the wire put those bytes on a file descriptor.
 */

#ifndef LOOPSIM_STORE_CODEC_HH
#define LOOPSIM_STORE_CODEC_HH

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace loopsim::store
{

/** Little-endian load of an unsigned integer at @p p, at any
 *  alignment: one plain load on a little-endian host. */
template <typename T>
T
loadLe(const char *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<unsigned char>(p[i]))
                 << (8 * i);
    }
    return v;
}

/** Append little-endian scalars / length-prefixed blobs to a string. */
class Encoder
{
  public:
    explicit Encoder(std::string &sink) : out(sink) {}

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { out.push_back(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out.append(s);
    }

    void
    doubles(const std::vector<double> &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        for (double d : v)
            f64(d);
    }

  private:
    std::string &out;
};

/** Bounds-checked little-endian reader over a view; every getter
 *  reports failure instead of reading past the end, so truncation can
 *  never fabricate a value, and no length or count is trusted before
 *  the bytes it claims are known to be there. */
class Decoder
{
  public:
    explicit Decoder(std::string_view bytes)
        : begin(bytes.data()), p(begin), end(begin + bytes.size())
    {}

    bool
    u32(std::uint32_t &v)
    {
        if (remaining() < 4)
            return false;
        v = loadLe<std::uint32_t>(p);
        p += 4;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = loadLe<std::uint64_t>(p);
        p += 8;
        return true;
    }

    bool
    f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool
    boolean(bool &v)
    {
        if (remaining() < 1)
            return false;
        v = *p++ != 0;
        return true;
    }

    /** A length-prefixed string, as a view into the input. */
    bool
    view(std::string_view &s)
    {
        std::uint32_t len = 0;
        if (!u32(len) || remaining() < len)
            return false;
        s = std::string_view(p, len);
        p += len;
        return true;
    }

    bool
    str(std::string &s)
    {
        std::string_view v;
        if (!view(v))
            return false;
        s.assign(v);
        return true;
    }

    bool
    doubles(std::vector<double> &v)
    {
        std::uint32_t count = 0;
        if (!u32(count) || remaining() / 8 < count)
            return false;
        v.resize(count);
        for (double &d : v) {
            d = std::bit_cast<double>(loadLe<std::uint64_t>(p));
            p += 8;
        }
        return true;
    }

    bool done() const { return p == end; }

    /** Bytes consumed so far. */
    std::size_t
    offset() const
    {
        return static_cast<std::size_t>(p - begin);
    }

  private:
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - p);
    }

    const char *begin;
    const char *p;
    const char *end;
};

/** Write all @p n bytes of @p data to @p fd, retrying after EINTR and
 *  short writes; false on any other error. */
inline bool
writeAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

} // namespace loopsim::store

#endif // LOOPSIM_STORE_CODEC_HH
