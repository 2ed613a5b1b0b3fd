/**
 * @file
 * Canonical run fingerprints for the persistent result store.
 *
 * A fingerprint is a 128-bit content hash over *everything a run's
 * results are a function of*: the fully-resolved configuration
 * (effectiveRunConfig(): defaults, spec overrides and the process
 * overlay, already merged — so it is permutation-independent by
 * construction), every field of every thread's BenchmarkProfile
 * (seeds included), the op/warmup/cycle budgets, and two constants:
 * the record schema version and a model epoch that is bumped whenever
 * a simulator change alters results without any configuration key
 * changing. PR 2 made runs byte-identical functions
 * of exactly these inputs, which is what makes the fingerprint a
 * sound memoization key.
 *
 * Doubles are hashed by bit pattern, never by formatting, so a
 * fingerprint is stable across locales and print precision.
 */

#ifndef LOOPSIM_STORE_FINGERPRINT_HH
#define LOOPSIM_STORE_FINGERPRINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace loopsim
{

struct RunSpec;
struct RetryPolicy;

namespace store
{

/**
 * Record-format version: bumping it invalidates every existing record
 * (it is hashed into the fingerprint *and* checked in the record
 * header, so stale files simply read as misses).
 *
 * v2: RunResult::failKind joined the payload (crash/timeout verdicts
 * must replay from journals byte-identically).
 */
constexpr std::uint32_t kSchemaVersion = 2;

/**
 * Model epoch: bump when a simulator change alters results for
 * unchanged configurations (new stat semantics, changed tie-breaking,
 * recalibrated profiles). Hashing it into the fingerprint retires the
 * whole store without deleting a file.
 */
constexpr std::uint64_t kModelEpoch = 1;

/** A 128-bit content hash (two FNV-1a lanes over the same bytes). */
struct Fingerprint
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Fingerprint &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
    bool operator!=(const Fingerprint &o) const { return !(*this == o); }
    bool operator<(const Fingerprint &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }

    /** 32 lowercase hex digits (hi then lo); the store's file name. */
    std::string hex() const;

    /** Parse hex(); returns false on malformed input. */
    static bool parse(std::string_view text, Fingerprint &out);
};

/**
 * Incremental canonical hasher. Every value goes in behind a short
 * field tag, so "" + "ab" can never collide with "a" + "b" and field
 * reordering in a future refactor shows up as an (intended) rehash.
 */
class Hasher
{
  public:
    Hasher();

    void bytes(const void *data, std::size_t n);
    void tag(std::string_view name);
    void str(std::string_view name, std::string_view v);
    void u64(std::string_view name, std::uint64_t v);
    void f64(std::string_view name, double v); ///< by bit pattern
    void flag(std::string_view name, bool v);

    Fingerprint digest() const;

  private:
    std::uint64_t a;
    std::uint64_t b;
};

/**
 * Fingerprint one planned run: @p spec resolved by
 * effectiveRunConfig() (the same resolution runOnce() performs), plus
 * the schema/epoch constants. @p policy is empty (see RetryPolicy)
 * and hashes nothing.
 */
Fingerprint fingerprintRun(const RunSpec &spec, const RetryPolicy &policy);

/**
 * fingerprintRun() of every spec in @p specs, in order, in one pass:
 * the configuration prefix is hashed once per distinct
 * spec.overrides, and each run of consecutive specs with the same
 * workload and budgets (one row of a runSweep plan) advances its
 * cells' lanes through those fields together. Each fingerprint equals
 * fingerprintRun() of its spec.
 */
std::vector<Fingerprint> fingerprintRuns(
    const std::vector<const RunSpec *> &specs);

} // namespace store
} // namespace loopsim

#endif // LOOPSIM_STORE_FINGERPRINT_HH
