/**
 * @file
 * Per-figure experiment drivers. Each function regenerates the data of
 * one figure of the paper's evaluation as a SweepSpec description run
 * by runSweep(), which every figure shares; the bench binaries print
 * the results via report.hh.
 */

#ifndef LOOPSIM_HARNESS_FIGURES_HH
#define LOOPSIM_HARNESS_FIGURES_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace loopsim
{

class CampaignPlan;

/** A labelled column of per-workload values. */
struct Series
{
    std::string label;
    std::vector<double> values;
};

/** A complete figure: rows are workloads (or x-values). */
struct FigureData
{
    std::string title;
    std::string valueUnit; ///< "speedup" / "fraction" / ...
    std::vector<std::string> rowLabels;
    std::vector<Series> columns;
    /**
     * Fail-soft bookkeeping: one line per run that never finished.
     * The corresponding values are NaN; the report
     * renders them as "fail" and prints these lines as a footer.
     */
    std::vector<std::string> failures;
};

/**
 * Figure 4: performance for varying pipeline length. DEC-IQ + IQ-EX is
 * swept over {6, 10, 14, 18} (configs 3_3, 5_5, 7_7, 9_9); every value
 * is speedup relative to the 6-cycle machine for that workload.
 */
FigureData figure4(std::uint64_t total_ops);

/**
 * Figure 5: performance for a fixed overall pipeline length of 12,
 * configurations 3_9, 5_7, 7_5, 9_3, relative to 3_9.
 */
FigureData figure5(std::uint64_t total_ops);

/**
 * Figure 6: cumulative distribution of the cycles between first- and
 * second-operand availability, for one benchmark (turb3d in the
 * paper). Rows are cycle values 0..64; one column per workload given.
 */
FigureData figure6(std::uint64_t total_ops,
                   const std::vector<std::string> &workloads = {"turb3d"});

/**
 * Figure 8: DRA vs base speedups for register-file latencies 3, 5, 7
 * (DRA:5_3 vs Base:5_5, DRA:7_3 vs Base:5_7, DRA:9_3 vs Base:5_9).
 */
FigureData figure8(std::uint64_t total_ops);

/**
 * Figure 9: operand-location breakdown (pre-read / forwarding buffer /
 * CRC / miss) for the 7_3 DRA machine (5-cycle register file).
 */
FigureData figure9(std::uint64_t total_ops);

/** @name Ablations called out in DESIGN.md §5 */
/// @{
/** CRC capacity sweep (4..64 entries) on the 7_3 DRA machine. */
FigureData ablationCrcSize(std::uint64_t total_ops,
                           const std::vector<std::string> &workloads);
/** CRC replacement (fifo vs lru) on the 7_3 DRA machine. */
FigureData ablationCrcRepl(std::uint64_t total_ops,
                           const std::vector<std::string> &workloads);
/** Insertion-table counter width (1..3 bits). */
FigureData ablationInsertionBits(std::uint64_t total_ops,
                                 const std::vector<std::string> &workloads);
/** Load recovery policy: reissue vs refetch vs stall (§2.2.2). */
FigureData ablationLoadRecovery(std::uint64_t total_ops,
                                const std::vector<std::string> &workloads);
/** Dependence-tree reissue vs 21264 kill-all-in-shadow. */
FigureData ablationKillShadow(std::uint64_t total_ops,
                              const std::vector<std::string> &workloads);
/** Forwarding-buffer depth sweep on the base machine. */
FigureData ablationFwdDepth(std::uint64_t total_ops,
                            const std::vector<std::string> &workloads);
/** Memory trap loop: reorder traps + wait table on vs off. */
FigureData ablationMemDep(std::uint64_t total_ops,
                          const std::vector<std::string> &workloads);
/** §5.5 CRC stale-entry handling: invalidate-only vs timeouts. */
FigureData ablationCrcTimeout(std::uint64_t total_ops,
                              const std::vector<std::string> &workloads);
/// @}

/**
 * Execute @p plan on the campaign thread pool (harness/campaign.hh)
 * and append a failure-footer line to @p fig for every fail-soft cell.
 * Results and footer lines are in plan order regardless of job count,
 * so assembled figures are byte-identical to a serial sweep. runSweep()
 * runs every figure through this; it is exposed for tests that
 * assemble their own FigureData.
 */
std::vector<RunResult> runPlan(FigureData &fig, const CampaignPlan &plan);

/**
 * While one is alive, runPlan() records each plan it is handed and runs
 * none of its cells: every result comes back failed, and the figure
 * renders fail points. This lists a figure's cells without simulating
 * them (the fingerprint tests check every figure's plan this way).
 * One at a time, on the thread that builds the figures.
 */
class PlanRecorder
{
  public:
    PlanRecorder();
    ~PlanRecorder();
    PlanRecorder(const PlanRecorder &) = delete;
    PlanRecorder &operator=(const PlanRecorder &) = delete;

    /** The plans recorded so far, in the order they were run. */
    const std::vector<CampaignPlan> &plans() const { return recorded; }

  private:
    friend std::vector<RunResult> runPlan(FigureData &fig,
                                          const CampaignPlan &plan);
    std::vector<CampaignPlan> recorded;
};

/** One row's results, one per SweepCell, in cell order. */
using SweepRow = std::span<const RunResult>;

/** One machine configuration that every row of a sweep runs. */
struct SweepCell
{
    /** Configuration overlaid on the figure defaults. */
    Config overrides;
    /** Plan label for diagnostics and traces (empty: none); it may
     *  name the row's workload. */
    std::function<std::string(const Workload &row)> label;
};

/** One column of a sweep: a header and a value per row. */
struct SweepColumn
{
    /** The header, computed from the first row's results. */
    std::function<std::string(SweepRow first)> label;
    /** This column's value for one row. */
    std::function<double(SweepRow row)> value;
};

/** A column whose header is @p label whatever the first row holds. */
SweepColumn sweepColumn(std::string label,
                        std::function<double(SweepRow row)> value);

/**
 * A figure described as a sweep: every row workload runs the same
 * cells, and each column is computed from one row's results alone.
 * Figures 4 to 9 (figure6 transposes its result), the DESIGN.md §5
 * ablations and sweepConfigs() are all descriptions handed to
 * runSweep().
 */
struct SweepSpec
{
    std::string title;
    std::string valueUnit;
    std::vector<SweepCell> cells;
    std::vector<SweepColumn> columns;
};

/**
 * Run @p sweep over @p rows at @p total_ops measured ops per cell. The
 * plan is workload-major (row 0's cells, then row 1's, ...) and runs
 * through runPlan(), so the failure footer and fail-soft cells behave
 * as in any campaign. Rows are labelled with figureLabel(). A sweep
 * over no rows has no columns, since headers come from the first row.
 */
FigureData runSweep(const SweepSpec &sweep, const std::vector<Workload> &rows,
                    std::uint64_t total_ops);

/**
 * Generic sweep: one row per workload, one labelled configuration per
 * column, raw IPC as the value. Runs fail-soft: a configuration that
 * cannot finish yields a NaN point and an entry
 * in FigureData::failures instead of aborting the sweep.
 */
FigureData sweepConfigs(
    const std::string &title,
    const std::vector<std::string> &workloads,
    const std::vector<std::pair<std::string, Config>> &configs,
    std::uint64_t total_ops);

} // namespace loopsim

#endif // LOOPSIM_HARNESS_FIGURES_HH
