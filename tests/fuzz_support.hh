/**
 * @file
 * What the mutation-fuzz tests share: an allocation watch (the fuzz
 * binary replaces the global operator new to see every allocation's
 * size), a failure tally and the bit-flip mutation. A fixed-seed PRNG
 * drives every round, so a failure reproduces exactly.
 */

#ifndef LOOPSIM_TESTS_FUZZ_SUPPORT_HH
#define LOOPSIM_TESTS_FUZZ_SUPPORT_HH

#include <cstddef>
#include <random>
#include <string>

namespace loopsim::fuzz
{

/** The largest single allocation, and how many were made, while in
 *  scope. */
class AllocWatch
{
  public:
    AllocWatch();
    ~AllocWatch();
    AllocWatch(const AllocWatch &) = delete;
    AllocWatch &operator=(const AllocWatch &) = delete;
    std::size_t largest() const;
    std::size_t count() const;
};

/** Mutants that loaded, were rejected, and broke the contract. */
struct Tally
{
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    std::size_t failures = 0;
    std::string firstFailure;

    void
    fail(const std::string &what)
    {
        if (failures++ == 0)
            firstFailure = what;
    }
};

/** @p bytes with one to three random bits flipped at or after @p lo. */
inline std::string
flipBits(std::string bytes, std::mt19937_64 &rng, std::size_t lo)
{
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < flips; ++k) {
        const std::size_t at = lo + rng() % (bytes.size() - lo);
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
    }
    return bytes;
}

} // namespace loopsim::fuzz

#endif // LOOPSIM_TESTS_FUZZ_SUPPORT_HH
