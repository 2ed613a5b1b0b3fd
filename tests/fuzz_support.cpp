/**
 * @file
 * The fuzz binary's global operator new, which records the largest
 * allocation, and counts the allocations, made while an AllocWatch is
 * in scope.
 */

#include "fuzz_support.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> watching{false};
std::atomic<std::size_t> largestAlloc{0};
std::atomic<std::size_t> allocCount{0};

} // anonymous namespace

void *
operator new(std::size_t n)
{
    if (watching.load(std::memory_order_relaxed)) {
        allocCount.fetch_add(1, std::memory_order_relaxed);
        std::size_t prev = largestAlloc.load(std::memory_order_relaxed);
        while (n > prev && !largestAlloc.compare_exchange_weak(prev, n)) {
        }
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// GCC pairs the inlined `new` of library code with these free() calls
// and reports a mismatch; the replacement above allocates with malloc,
// so free is the matching release.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace loopsim::fuzz
{

AllocWatch::AllocWatch()
{
    largestAlloc.store(0, std::memory_order_relaxed);
    allocCount.store(0, std::memory_order_relaxed);
    watching.store(true, std::memory_order_relaxed);
}

AllocWatch::~AllocWatch()
{
    watching.store(false, std::memory_order_relaxed);
}

std::size_t
AllocWatch::largest() const
{
    return largestAlloc.load(std::memory_order_relaxed);
}

std::size_t
AllocWatch::count() const
{
    return allocCount.load(std::memory_order_relaxed);
}

} // namespace loopsim::fuzz
