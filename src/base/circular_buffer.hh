/**
 * @file
 * Fixed-capacity circular FIFO: the core's per-thread fetch buffer,
 * replay queue and reorder buffer, its DEC-IQ pipe, and the ExecStart
 * queues of the pipeline event queue (core/event_queue.hh).
 */

#ifndef LOOPSIM_BASE_CIRCULAR_BUFFER_HH
#define LOOPSIM_BASE_CIRCULAR_BUFFER_HH

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace loopsim
{

/**
 * A bounded FIFO over contiguous storage. Indexing via operator[](i)
 * addresses the i-th oldest element. Pushing into a full buffer panics;
 * callers are expected to model back-pressure explicitly. Storage is
 * rounded up to a power of two so wrap-around is a mask, but the
 * buffer is full at exactly the requested capacity.
 */
template <typename T>
class CircularBuffer
{
  public:
    explicit CircularBuffer(std::size_t capacity)
        : store(std::bit_ceil(capacity)), mask(store.size() - 1),
          limit(capacity)
    {
        panic_if(capacity == 0, "CircularBuffer capacity must be > 0");
    }

    std::size_t capacity() const { return limit; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == limit; }
    std::size_t freeSlots() const { return limit - count; }

    /** Append to the tail. */
    void
    push(T value)
    {
        panic_if(full(), "push into full CircularBuffer");
        store[index(count)] = std::move(value);
        ++count;
    }

    /** Prepend: @p value becomes the oldest element. */
    void
    pushFront(T value)
    {
        panic_if(full(), "push into full CircularBuffer");
        head = (head - 1) & mask;
        store[head] = std::move(value);
        ++count;
    }

    /** Remove and return the oldest element. */
    T
    pop()
    {
        panic_if(empty(), "pop from empty CircularBuffer");
        T value = std::move(store[head]);
        head = (head + 1) & mask;
        --count;
        return value;
    }

    /** Discard the newest element (used for squash-from-tail walks). */
    T
    popBack()
    {
        panic_if(empty(), "popBack from empty CircularBuffer");
        --count;
        return std::move(store[index(count)]);
    }

    /** The oldest element. */
    T &front() { return const_cast<T &>(std::as_const(*this).front()); }
    const T &
    front() const
    {
        panic_if(empty(), "front of empty CircularBuffer");
        return store[head];
    }

    /** The newest element. */
    T &back() { return const_cast<T &>(std::as_const(*this).back()); }
    const T &
    back() const
    {
        panic_if(empty(), "back of empty CircularBuffer");
        return store[index(count - 1)];
    }

    /** The i-th oldest element (0 == front). */
    T &operator[](std::size_t i)
    {
        return const_cast<T &>(std::as_const(*this)[i]);
    }
    const T &
    operator[](std::size_t i) const
    {
        panic_if(i >= count, "CircularBuffer index out of range");
        return store[index(i)];
    }

    /** Remove every element matching @p pred, keeping the survivors'
     *  order; returns how many were removed. */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < count; ++i) {
            T &slot = store[index(i)];
            if (pred(std::as_const(slot)))
                continue;
            if (kept != i)
                store[index(kept)] = std::move(slot);
            ++kept;
        }
        const std::size_t removed = count - kept;
        count = kept;
        return removed;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    std::size_t index(std::size_t i) const { return (head + i) & mask; }

    std::vector<T> store;
    std::size_t mask;
    std::size_t limit;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace loopsim

#endif // LOOPSIM_BASE_CIRCULAR_BUFFER_HH
