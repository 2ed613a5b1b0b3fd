#include "workload/workload_set.hh"

#include <map>
#include <string_view>
#include <utility>

#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim
{

namespace
{

/** Paper pair labels and their component benchmarks. */
const std::map<std::string, std::pair<std::string, std::string>> &
pairAliases()
{
    static const std::map<std::string, std::pair<std::string, std::string>>
        aliases = {
            {"m88-comp", {"m88ksim", "compress"}},
            {"mksim-comp", {"m88ksim", "compress"}},
            {"m88ksim-compress", {"m88ksim", "compress"}},
            {"go-su2cor", {"go", "su2cor"}},
            {"apsi-swim", {"apsi", "swim"}},
        };
    return aliases;
}

bool
isSingleName(const std::string &n)
{
    for (const auto &name : spec95Names()) {
        if (n == name)
            return true;
    }
    // Short aliases accepted by spec95Profile().
    return n == "comp" || n == "m88" || n == "m88k" || n == "hydro";
}

} // anonymous namespace

Workload
resolveWorkload(const std::string &label)
{
    std::string n = toLower(trim(label));
    Workload w;
    w.label = n;

    if (isSingleName(n)) {
        w.threads.push_back(spec95Profile(n));
        return w;
    }

    auto it = pairAliases().find(n);
    if (it != pairAliases().end()) {
        w.threads.push_back(spec95Profile(it->second.first));
        w.threads.push_back(spec95Profile(it->second.second));
        return w;
    }

    // Generic "a-b" pair of any two benchmark names.
    auto dash = n.find('-');
    if (dash != std::string::npos) {
        std::string a = n.substr(0, dash);
        std::string b = n.substr(dash + 1);
        if (isSingleName(a) && isSingleName(b)) {
            w.threads.push_back(spec95Profile(a));
            w.threads.push_back(spec95Profile(b));
            return w;
        }
    }

    fatal("cannot resolve workload label: ", label);
}

const std::vector<Workload> &
figureWorkloads()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<Workload> v;
        for (const auto &name : spec95Names())
            v.push_back(resolveWorkload(name));
        v.push_back(resolveWorkload("m88-comp"));
        v.push_back(resolveWorkload("go-su2cor"));
        v.push_back(resolveWorkload("apsi-swim"));
        return v;
    }();
    return workloads;
}

std::string
figureLabel(const Workload &w)
{
    // A constant table, with no guard to take on first use: a forked
    // isolated worker calls this too, and would block forever on a
    // guard some other parent thread held at the fork.
    static constexpr std::pair<std::string_view, std::string_view>
        shorten[] = {
            {"compress", "comp"}, {"m88ksim", "m88"}, {"hydro2d", "hydro"}};
    for (const auto &[name, label] : shorten) {
        if (w.label == name)
            return std::string(label);
    }
    return w.label;
}

} // namespace loopsim
