#include "core/forwarding_buffer.hh"

#include "base/logging.hh"

namespace loopsim
{

ForwardingBuffer::ForwardingBuffer(unsigned depth) : window(depth)
{
    fatal_if(depth == 0, "forwarding buffer depth must be >= 1");
}

bool
ForwardingBuffer::covers(Cycle produced_at, Cycle exec_start) const
{
    if (produced_at == invalidCycle || exec_start < produced_at)
        return false;
    return exec_start - produced_at < window;
}

Cycle
ForwardingBuffer::writebackCycle(Cycle produced_at) const
{
    panic_if(produced_at == invalidCycle,
             "writeback of an unproduced value");
    return produced_at + window;
}

} // namespace loopsim
