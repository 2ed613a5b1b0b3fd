/**
 * @file
 * Named workloads: the paper's single-thread benchmarks plus its three
 * SMT pairings, resolvable by the short labels used in the figures.
 */

#ifndef LOOPSIM_WORKLOAD_WORKLOAD_SET_HH
#define LOOPSIM_WORKLOAD_WORKLOAD_SET_HH

#include <string>
#include <vector>

#include "workload/profile.hh"

namespace loopsim
{

/** One named workload: one profile per hardware thread. */
struct Workload
{
    std::string label;
    std::vector<BenchmarkProfile> threads;

    bool multiThreaded() const { return threads.size() > 1; }
    bool operator==(const Workload &) const = default;
};

/**
 * Resolve a workload label: a single benchmark name ("swim"), a paper
 * pair label ("m88-comp", "go-su2cor", "apsi-swim"), or any "a-b" pair
 * of benchmark names. fatal() for unresolvable labels.
 */
Workload resolveWorkload(const std::string &label);

/**
 * The thirteen workloads of the paper's figures, in figure order:
 * comp gcc go m88 apsi hydro mgrid su2cor swim turb3d
 * m88-comp go-su2cor apsi-swim.
 */
const std::vector<Workload> &figureWorkloads();

/** Short axis label used in the paper's figures ("comp", "m88", ...). */
std::string figureLabel(const Workload &w);

} // namespace loopsim

#endif // LOOPSIM_WORKLOAD_WORKLOAD_SET_HH
