/**
 * @file
 * The figure campaigns the benchmark runs, built from the library's
 * public plan API so every BenchmarkProfile::seed can be offset by the
 * benchmark seed. With seed 0 each plan and its assembled CSV are
 * exactly what harness/figures.cc produces (the self-test checks this
 * against figure4() .. figure9()).
 */

#ifndef LOOPBENCH_FIGURES_HH
#define LOOPBENCH_FIGURES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/figures.hh"

namespace loopbench
{

/** The thirteen figure workloads, every thread's seed offset by @p seed. */
std::vector<loopsim::Workload> seededWorkloads(std::uint64_t seed);

/** One figure campaign: its plan and how results assemble into it. */
struct FigurePlan
{
    std::string name; ///< "fig4", "fig5", "fig8" or "fig9"
    loopsim::CampaignPlan plan;
    std::function<loopsim::FigureData(
        const std::vector<loopsim::RunResult> &)>
        assemble;
};

/** Build figure @p name ("fig4", "fig5", "fig8", "fig9") over @p ws. */
FigurePlan makeFigurePlan(const std::string &name,
                          const std::vector<loopsim::Workload> &ws,
                          std::uint64_t ops);

/** printCsv() output of @p fig. */
std::string figureCsv(const loopsim::FigureData &fig);

/** 128-bit content digest of @p text, as 32 hex digits. */
std::string digestOf(const std::string &text);

/** digestOf(figureCsv(plan.assemble(results))). */
std::string figureDigest(const FigurePlan &plan,
                         const std::vector<loopsim::RunResult> &results);

} // namespace loopbench

#endif // LOOPBENCH_FIGURES_HH
