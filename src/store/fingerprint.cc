#include "store/fingerprint.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <map>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "workload/profile.hh"
#include "workload/workload_set.hh"

namespace loopsim::store
{

namespace
{

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
/** Lane seeds: the standard FNV-1a offset basis and a second basis
 *  (the first, remixed) so the two 64-bit lanes are independent. */
constexpr std::uint64_t kBasisA = 0xcbf29ce484222325ull;
constexpr std::uint64_t kBasisB = 0x9ae16a3b2f90404full;

constexpr char kHexDigits[] = "0123456789abcdef";

void
hexU64(std::uint64_t v, std::string &out)
{
    for (int shift = 60; shift >= 0; shift -= 4)
        out.push_back(kHexDigits[(v >> shift) & 0xf]);
}

/** kFnvPowers[k] = kFnvPrime^k mod 2^64. FNV-1a of a zero byte is
 *  (h ^ 0) * P = h * P, so k zero bytes multiply a lane by P^k. */
constexpr std::array<std::uint64_t, 9> kFnvPowers = [] {
    std::array<std::uint64_t, 9> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k)
        p[k] = p[k - 1] * kFnvPrime;
    return p;
}();

/**
 * N fingerprints' FNV-1a lane pairs, advanced through the same bytes
 * together. The 2N xor-multiply chains are independent, so they
 * overlap instead of each waiting on its own multiply latency, and
 * every lane still takes every byte in order: each ends where a
 * byte-at-a-time pass of its own would. Hasher is the N = 1 case.
 */
template <std::size_t N>
struct Lanes
{
    std::array<std::uint64_t, N> a;
    std::array<std::uint64_t, N> b;

    void
    byte(unsigned char c)
    {
        for (std::size_t k = 0; k < N; ++k) {
            a[k] = (a[k] ^ c) * kFnvPrime;
            b[k] = (b[k] ^ c) * kFnvPrime;
        }
    }

    void
    bytes(const unsigned char *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            byte(p[i]);
    }

    void
    zeros(unsigned count)
    {
        for (std::size_t k = 0; k < N; ++k) {
            a[k] *= kFnvPowers[count];
            b[k] *= kFnvPowers[count];
        }
    }

    /** The eight in-memory bytes of @p v. On a little-endian host the
     *  zero bytes at either end (length prefixes, small counts, round
     *  doubles) fold into one multiply each instead of a chain step
     *  per byte. */
    void
    word(std::uint64_t v)
    {
        if constexpr (std::endian::native != std::endian::little) {
            bytes(reinterpret_cast<const unsigned char *>(&v), sizeof(v));
        } else if (v == 0) {
            zeros(8);
        } else {
            const unsigned low = std::countr_zero(v) / 8;
            const unsigned high = 8 - std::countl_zero(v) / 8;
            zeros(low);
            for (unsigned i = low; i < high; ++i)
                byte(static_cast<unsigned char>(v >> (8 * i)));
            zeros(8 - high);
        }
    }

    /** A length-prefixed string: the tag and str() encoding. */
    void
    text(std::string_view s)
    {
        word(s.size());
        bytes(reinterpret_cast<const unsigned char *>(s.data()), s.size());
    }

    /** @name Hasher's field encodings */
    /// @{
    void
    str(std::string_view name, std::string_view v)
    {
        text(name);
        text(v);
    }

    void
    u64(std::string_view name, std::uint64_t v)
    {
        text(name);
        word(v);
    }

    void
    f64(std::string_view name, double v)
    {
        u64(name, std::bit_cast<std::uint64_t>(v));
    }

    void flag(std::string_view name, bool v) { u64(name, v ? 1 : 0); }
    /// @}
};

/** Run @p hash on a local copy of the lanes @p a and @p b. */
template <typename F>
void
withLanes(std::uint64_t &a, std::uint64_t &b, F &&hash)
{
    Lanes<1> l{{a}, {b}};
    hash(l);
    a = l.a[0];
    b = l.b[0];
}

/** Final avalanche (splitmix64) so short inputs still spread over the
 *  whole 128 bits; the raw FNV state is weak in its low bits. */
Fingerprint
finish(std::uint64_t a, std::uint64_t b)
{
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };
    return Fingerprint{mix(a), mix(b ^ a)};
}

/** Hash every result-shaping field of one thread's profile. */
template <typename Sink>
void
hashProfile(Sink &h, const BenchmarkProfile &p)
{
    h.str("prof.name", p.name);
    h.flag("prof.fp", p.floatingPoint);

    h.f64("mix.cond_branch", p.condBranchFrac);
    h.f64("mix.uncond_branch", p.uncondBranchFrac);
    h.f64("mix.load", p.loadFrac);
    h.f64("mix.store", p.storeFrac);
    h.f64("mix.int_mult", p.intMultFrac);
    h.f64("mix.fp_add", p.fpAddFrac);
    h.f64("mix.fp_mult", p.fpMultFrac);
    h.f64("mix.fp_div", p.fpDivFrac);
    h.f64("mix.nop", p.nopFrac);
    h.f64("mix.barrier", p.barrierFrac);

    h.f64("ctl.mispredict", p.mispredictRate);
    h.f64("ctl.uncond_mispredict", p.uncondMispredictRate);
    h.u64("ctl.static_branches", p.numStaticBranches);
    h.f64("ctl.taken_bias", p.takenBias);

    h.u64("mem.hot_bytes", p.hotBytes);
    h.u64("mem.l2_bytes", p.l2Bytes);
    h.f64("mem.l2_frac", p.l2ResidentFrac);
    h.f64("mem.far_frac", p.farFrac);
    h.u64("mem.far_stride", p.farStrideBytes);

    h.u64("dep.weights", p.depDistWeights.size());
    for (double w : p.depDistWeights)
        h.f64("dep.w", w);
    h.f64("dep.serial_chain", p.serialChainFrac);
    h.f64("dep.long_lived", p.longLivedSrcFrac);
    h.f64("dep.hot_src", p.hotSrcFrac);
    h.u64("dep.hot_regs", p.hotRegCount);
    h.u64("dep.hot_period", p.hotWritePeriod);
    h.f64("dep.second_src", p.secondSrcFrac);

    h.u64("prof.code_loop", p.codeLoopLength);
    h.u64("prof.seed", p.seed);
}

/** The fields after the configuration: the workload and the budgets. */
template <typename Sink>
void
hashWorkloadAndBudgets(Sink &h, const RunSpec &spec)
{
    h.str("workload.label", spec.workload.label);
    h.u64("workload.threads", spec.workload.threads.size());
    for (const BenchmarkProfile &p : spec.workload.threads)
        hashProfile(h, p);

    h.u64("spec.total_ops", spec.totalOps);
    h.u64("spec.warmup_ops", spec.warmupOps);
    h.u64("spec.max_cycles", spec.maxCycles);
}

/**
 * The lanes after the schema, the epoch and the fully-resolved
 * configuration, exactly what runOnce() will see. Config stores keys
 * sorted, so how the caller spread the same assignments across the
 * overrides and the overlay cannot change the hash.
 */
Lanes<1>
hashConfigPrefix(const RunSpec &spec)
{
    Lanes<1> h{{kBasisA}, {kBasisB}};
    h.u64("store.schema", kSchemaVersion);
    h.u64("store.epoch", kModelEpoch);
    const Config cfg = effectiveRunConfig(spec);
    const auto &entries = cfg.entries();
    h.u64("cfg.count", entries.size());
    for (const auto &[key, value] : entries)
        h.str(key, value);
    return h;
}

/**
 * Whether @p spec hashes a -0.0. The defaulted operator== takes it for
 * +0.0, but its bytes differ, so a spec holding one is never folded
 * into another spec's row.
 */
bool
hashesNegativeZero(const RunSpec &spec)
{
    struct Scan
    {
        bool seen = false;
        void str(std::string_view, std::string_view) {}
        void u64(std::string_view, std::uint64_t) {}
        void flag(std::string_view, bool) {}
        void
        f64(std::string_view, double v)
        {
            seen |= v == 0.0 && std::signbit(v);
        }
    } scan;
    hashWorkloadAndBudgets(scan, spec);
    return scan.seen;
}

/** Whether @p a and @p b hash the same bytes after the configuration. */
bool
sameRow(const RunSpec &a, const RunSpec &b)
{
    return a.totalOps == b.totalOps && a.warmupOps == b.warmupOps &&
           a.maxCycles == b.maxCycles && a.workload == b.workload &&
           !hashesNegativeZero(b);
}

/**
 * Finish the N fingerprints out[0..N) of one row: @p prefix holds each
 * cell's lanes after its configuration, and @p spec is the row's
 * shared workload and budgets.
 */
template <std::size_t N>
void
finishRow(const Lanes<1> *prefix, const RunSpec &spec, Fingerprint *out)
{
    Lanes<N> h;
    for (std::size_t k = 0; k < N; ++k) {
        h.a[k] = prefix[k].a[0];
        h.b[k] = prefix[k].b[0];
    }
    hashWorkloadAndBudgets(h, spec);
    for (std::size_t k = 0; k < N; ++k)
        out[k] = finish(h.a[k], h.b[k]);
}

} // anonymous namespace

std::string
Fingerprint::hex() const
{
    std::string out;
    out.reserve(32);
    hexU64(hi, out);
    hexU64(lo, out);
    return out;
}

bool
Fingerprint::parse(std::string_view text, Fingerprint &out)
{
    if (text.size() != 32)
        return false;
    std::uint64_t parts[2] = {0, 0};
    for (std::size_t i = 0; i < 32; ++i) {
        char c = text[i];
        std::uint64_t nibble = 0;
        if (c >= '0' && c <= '9')
            nibble = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nibble = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return false;
        parts[i / 16] = (parts[i / 16] << 4) | nibble;
    }
    out.hi = parts[0];
    out.lo = parts[1];
    return true;
}

Hasher::Hasher() : a(kBasisA), b(kBasisB) {}

void
Hasher::bytes(const void *data, std::size_t n)
{
    withLanes(a, b, [&](Lanes<1> &l) {
        l.bytes(static_cast<const unsigned char *>(data), n);
    });
}

void
Hasher::tag(std::string_view name)
{
    // Length-prefix the tag so adjacent fields can never alias.
    withLanes(a, b, [&](Lanes<1> &l) { l.text(name); });
}

void
Hasher::str(std::string_view name, std::string_view v)
{
    withLanes(a, b, [&](Lanes<1> &l) { l.str(name, v); });
}

void
Hasher::u64(std::string_view name, std::uint64_t v)
{
    withLanes(a, b, [&](Lanes<1> &l) { l.u64(name, v); });
}

void
Hasher::f64(std::string_view name, double v)
{
    u64(name, std::bit_cast<std::uint64_t>(v));
}

void
Hasher::flag(std::string_view name, bool v)
{
    u64(name, v ? 1 : 0);
}

Fingerprint
Hasher::digest() const
{
    return finish(a, b);
}

Fingerprint
fingerprintRun(const RunSpec &spec, const RetryPolicy &)
{
    Lanes<1> h = hashConfigPrefix(spec);
    hashWorkloadAndBudgets(h, spec);
    return finish(h.a[0], h.b[0]);
}

std::vector<Fingerprint>
fingerprintRuns(const std::vector<const RunSpec *> &specs)
{
    // The configuration prefix once per distinct spec.overrides: the
    // process overlay is the same for the whole call.
    std::map<std::map<std::string, std::string>, Lanes<1>> prefixes;
    std::vector<Lanes<1>> prefix;
    prefix.reserve(specs.size());
    for (const RunSpec *spec : specs) {
        const auto &overrides = spec->overrides.entries();
        auto it = prefixes.find(overrides);
        if (it == prefixes.end())
            it = prefixes.emplace(overrides, hashConfigPrefix(*spec)).first;
        prefix.push_back(it->second);
    }

    // A row is a run of consecutive specs with the same workload and
    // budgets (one row of a runSweep plan): its cells hash the same
    // bytes after their prefixes, four lane pairs at a time.
    std::vector<Fingerprint> out(specs.size());
    for (std::size_t row = 0; row < specs.size();) {
        const RunSpec &spec = *specs[row];
        std::size_t end = row + 1;
        if (!hashesNegativeZero(spec)) {
            while (end < specs.size() && sameRow(spec, *specs[end]))
                ++end;
        }
        for (std::size_t i = row; i < end;) {
            if (end - i >= 4) {
                finishRow<4>(&prefix[i], spec, &out[i]);
                i += 4;
            } else if (end - i >= 2) {
                finishRow<2>(&prefix[i], spec, &out[i]);
                i += 2;
            } else {
                finishRow<1>(&prefix[i], spec, &out[i]);
                i += 1;
            }
        }
        row = end;
    }
    return out;
}

} // namespace loopsim::store
