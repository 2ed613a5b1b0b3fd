/**
 * @file
 * The forwarding buffer of §2.2.1: results remain readable at the
 * functional units for a fixed window after production, after which
 * they exist only in the register file (and, under the DRA, possibly
 * in a CRC).
 *
 * Because the simulator is timing-only, the buffer is modelled as a
 * predicate over production times rather than a CAM of values; the
 * window arithmetic — and hence hit/miss behaviour — is exact.
 */

#ifndef LOOPSIM_CORE_FORWARDING_BUFFER_HH
#define LOOPSIM_CORE_FORWARDING_BUFFER_HH

#include "base/types.hh"

namespace loopsim
{

class ForwardingBuffer
{
  public:
    /** @param depth window length in cycles (9 in the base machine). */
    explicit ForwardingBuffer(unsigned depth);

    /**
     * Would a consumer starting execution at @p exec_start read a value
     * produced at @p produced_at from the forwarding network?
     *
     * The value is forwardable in the production cycle itself (the
     * tight ALU loop) and for depth-1 further cycles; at
     * produced_at + depth it has been retired to the register file.
     */
    bool covers(Cycle produced_at, Cycle exec_start) const;

    /** Cycle the value leaves the buffer and lands in the RF. */
    Cycle writebackCycle(Cycle produced_at) const;

    unsigned depth() const { return window; }

  private:
    unsigned window;
};

} // namespace loopsim

#endif // LOOPSIM_CORE_FORWARDING_BUFFER_HH
