/**
 * @file
 * The traced campaign: runCampaign()'s resolve -> execute -> publish
 * pipeline re-stated from the library's public API, with a span around
 * every call into a layer. Spans are the benchmark's own; nothing in
 * the simulator is instrumented. A traced campaign does the same work
 * as the untraced runCampaign() call it shadows and must assemble the
 * same figures, which the benchmark checks by digest.
 *
 * Span names are "<layer>.<what>". Inside a `harness.cell`,
 * `harness.resolve` or `harness.publish` span every piece of work is
 * wrapped in a child span, so children sum to the parent up to clock
 * overhead; the remainder is reported as trace.unattributed_frac.
 */

#ifndef LOOPBENCH_TRACED_HH
#define LOOPBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "harness/campaign.hh"

namespace loopbench
{

using Clock = std::chrono::steady_clock;

/** One recorded span; times are seconds since the pass epoch. */
struct Span
{
    const char *name = "";
    /** Index of the enclosing span in the same log; -1 for a root. */
    std::int32_t parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
};

/** The spans one thread recorded, kept in memory until summarized. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point start) : epoch(start) {}

    std::int32_t open(const char *name, std::int32_t parent);
    void close(std::int32_t id);
    const std::vector<Span> &spans() const { return recorded; }

  private:
    double now() const;

    Clock::time_point epoch;
    std::vector<Span> recorded;
};

/** Opens a span on construction and closes it on scope exit. */
class Scoped
{
  public:
    Scoped(SpanLog &into, const char *name, std::int32_t parent = -1)
        : log(into), index(into.open(name, parent))
    {}
    ~Scoped() { log.close(index); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::int32_t id() const { return index; }

  private:
    SpanLog &log;
    std::int32_t index;
};

/** Exact kernel counts of one simulated cell (RunResult::tickProfile). */
struct KernelCounts
{
    std::uint64_t ticks = 0;
    std::uint64_t scanTicks = 0;
    /** Simulated cycles including warmup. */
    std::uint64_t cycles = 0;
};

/** Busy / claim-wait / idle split of one pool worker's lifetime. */
struct WorkerTime
{
    double busy = 0.0;
    double claimWait = 0.0;
    double idle = 0.0;
};

/** What one traced campaign produced besides its spans. */
struct CampaignTrace
{
    std::vector<loopsim::RunResult> results;
    /** Plan indices that ran the simulator (memo/store/journal misses). */
    std::vector<std::size_t> simulated;
    /** Per simulated cell: DRA enabled, and its kernel counts
     *  (in-process cells only; isolated cells tick in the child). */
    std::vector<bool> draCell;
    std::vector<KernelCounts> kernel;
    std::size_t memoHits = 0;
    std::size_t resumed = 0;
    std::size_t isolatedRuns = 0;
    std::size_t spawnRetries = 0;
    std::size_t journalAppends = 0;
    loopsim::store::StoreStats store;
    std::vector<WorkerTime> workers;
};

/** Everything one traced pass (one or more campaigns) recorded. */
struct PassTrace
{
    Clock::time_point epoch = Clock::now();
    /** logs[0] is the calling thread; pool workers append their own
     *  (a deque, so handing a worker a reference survives growth). */
    std::deque<SpanLog> logs;
    std::vector<CampaignTrace> campaigns;

    PassTrace() { logs.emplace_back(epoch); }
};

/**
 * Run @p plan the way runCampaign() does, recording spans into
 * @p pass: journal replay (when a journal directory is configured),
 * memo and store lookups, @p jobs pool workers (cells forked through
 * runCellSupervised() when @p isolate, simulated in-process through
 * Core/Simulator otherwise), journal appends, then memo and store
 * inserts. Returns the results in plan order.
 */
const std::vector<loopsim::RunResult> &
runTracedCampaign(const loopsim::CampaignPlan &plan, unsigned jobs,
                  bool isolate, PassTrace &pass);

/**
 * Host seconds the standalone trace generator takes to produce every
 * op (warmup included) of each cell @p pass simulated in-process;
 * @p ops receives the op count.
 */
double timeGenerators(const PassTrace &pass,
                      const std::vector<const loopsim::CampaignPlan *> &plans,
                      std::uint64_t &ops);

/**
 * Median extra host milliseconds a cell costs when runCellSupervised()
 * forks it rather than runOnceResilient() running it in-process, over
 * @p cells cells spread across @p plan, each run both ways in turn on
 * this thread. NaN when the two ways disagree.
 */
double supervisorOverheadMs(const loopsim::CampaignPlan &plan,
                            std::size_t cells);

/**
 * Append @p results (one per cell of @p plan) to a fresh journal under
 * @p dir, then reopen it, recording `journal.append` and
 * `journal.replay` root spans in @p pass. For workloads whose campaigns
 * keep no journal. False unless the reopened journal replays every cell.
 */
bool journalProbe(const loopsim::CampaignPlan &plan,
                  const std::vector<loopsim::RunResult> &results,
                  const std::string &dir, PassTrace &pass);

/** Children must cover harness.cell spans, and all parent spans
 *  together, to within this share of their time. */
constexpr double kReconcileTolerance = 0.02;

/** Children's share of each parent span kind, summed over a pass. */
struct Reconciliation
{
    std::string parent;
    double seconds = 0.0;
    double unattributed = 0.0;
};

/**
 * Per-layer metrics of one pass, by name (see README.md for each
 * definition); @p rec receives the reconciliation of each parent kind.
 */
std::map<std::string, double>
summarizePass(const PassTrace &pass, std::vector<Reconciliation> &rec);

} // namespace loopbench

#endif // LOOPBENCH_TRACED_HH
