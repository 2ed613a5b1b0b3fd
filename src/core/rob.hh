/**
 * @file
 * Per-thread reorder buffer over the shared in-flight window. Retire is
 * in order per thread; squash walks from the tail.
 */

#ifndef LOOPSIM_CORE_ROB_HH
#define LOOPSIM_CORE_ROB_HH

#include "base/circular_buffer.hh"
#include "core/dyn_inst.hh"

namespace loopsim
{

class ReorderBuffer
{
  public:
    /** @param capacity the most entries one thread can hold: the
     *  machine's whole in-flight window. */
    explicit ReorderBuffer(std::size_t capacity) : entries(capacity) {}

    void push(InstRef ref) { entries.push(ref); }

    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    /** Oldest entry (retire candidate). */
    InstRef
    head() const
    {
        panic_if(entries.empty(), "head of empty ROB");
        return entries.front();
    }
    void
    popHead()
    {
        panic_if(entries.empty(), "pop of empty ROB");
        entries.pop();
    }

    /** Youngest entry (squash walks start here). */
    InstRef
    tail() const
    {
        panic_if(entries.empty(), "tail of empty ROB");
        return entries.back();
    }
    void
    popTail()
    {
        panic_if(entries.empty(), "popTail of empty ROB");
        entries.popBack();
    }

    /** Indexed access, 0 == oldest (for occupancy statistics). */
    InstRef
    at(std::size_t i) const
    {
        panic_if(i >= entries.size(), "ROB index out of range");
        return entries[i];
    }

    void clear() { entries.clear(); }

  private:
    CircularBuffer<InstRef> entries;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_ROB_HH
