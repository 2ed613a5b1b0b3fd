#include "workload/profile.hh"

#include "base/logging.hh"
#include "base/str.hh"

namespace loopsim
{

const std::vector<unsigned> &
BenchmarkProfile::depDistances()
{
    static const std::vector<unsigned> distances =
        {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128};
    return distances;
}

void
BenchmarkProfile::validate() const
{
    auto check_frac = [](double v, const char *what) {
        fatal_if(v < 0.0 || v > 1.0, what, " out of [0,1]: ", v);
    };
    check_frac(condBranchFrac, "condBranchFrac");
    check_frac(uncondBranchFrac, "uncondBranchFrac");
    check_frac(loadFrac, "loadFrac");
    check_frac(storeFrac, "storeFrac");
    check_frac(intMultFrac, "intMultFrac");
    check_frac(fpAddFrac, "fpAddFrac");
    check_frac(fpMultFrac, "fpMultFrac");
    check_frac(fpDivFrac, "fpDivFrac");
    check_frac(nopFrac, "nopFrac");
    check_frac(barrierFrac, "barrierFrac");
    check_frac(mispredictRate, "mispredictRate");
    check_frac(uncondMispredictRate, "uncondMispredictRate");
    check_frac(takenBias, "takenBias");
    check_frac(l2ResidentFrac, "l2ResidentFrac");
    check_frac(farFrac, "farFrac");
    check_frac(serialChainFrac, "serialChainFrac");
    check_frac(longLivedSrcFrac, "longLivedSrcFrac");
    check_frac(hotSrcFrac, "hotSrcFrac");
    check_frac(secondSrcFrac, "secondSrcFrac");

    double mix = condBranchFrac + uncondBranchFrac + loadFrac + storeFrac +
                 intMultFrac + fpAddFrac + fpMultFrac + fpDivFrac +
                 nopFrac + barrierFrac;
    fatal_if(mix > 1.0, "instruction mix fractions sum to ", mix, " > 1");
    fatal_if(l2ResidentFrac + farFrac > 1.0,
             "memory pattern fractions exceed 1");
    fatal_if(depDistWeights.size() != depDistances().size(),
             "depDistWeights must have ", depDistances().size(),
             " entries, got ", depDistWeights.size());
    fatal_if(codeLoopLength == 0, "codeLoopLength must be > 0");
    fatal_if(numStaticBranches == 0, "numStaticBranches must be > 0");
    fatal_if(hotRegCount == 0 || hotRegCount > 8,
             "hotRegCount must be in [1,8]");
    fatal_if(hotWritePeriod == 0, "hotWritePeriod must be > 0");
}

namespace
{

/**
 * The calibration below targets the qualitative behaviour the paper
 * attributes to each program (see §3.1, §3.2, §6 of the paper and
 * DESIGN.md): event *rates* and dependence *shape*, not absolute IPC.
 */

BenchmarkProfile
makeIntBase()
{
    BenchmarkProfile p;
    p.floatingPoint = false;
    p.intMultFrac = 0.015;
    p.secondSrcFrac = 0.5;
    // Moderate ILP: values are reused over a spread of distances.
    p.depDistWeights =
        {12, 10, 9, 8, 8, 7, 6, 5, 4, 3, 2, 1.5, 1, 0.5};
    return p;
}

BenchmarkProfile
makeFpBase()
{
    BenchmarkProfile p;
    p.floatingPoint = true;
    p.condBranchFrac = 0.05;
    p.uncondBranchFrac = 0.01;
    p.fpAddFrac = 0.20;
    p.fpMultFrac = 0.15;
    p.fpDivFrac = 0.005;
    p.intMultFrac = 0.005;
    p.secondSrcFrac = 0.65;
    p.takenBias = 0.85; // loop branches
    // FP codes spread dependences wider: more distant operands.
    p.depDistWeights =
        {10, 9, 8, 8, 8, 7, 7, 6, 5, 4, 3, 2.5, 2, 1.5};
    return p;
}

} // anonymous namespace

BenchmarkProfile
spec95Profile(const std::string &name)
{
    std::string n = toLower(trim(name));

    if (n == "compress" || n == "comp") {
        // Branchy integer code with a modest data set and a high
        // mispredict rate; much useless work from the branch loop.
        BenchmarkProfile p = makeIntBase();
        p.name = "compress";
        p.condBranchFrac = 0.17;
        p.uncondBranchFrac = 0.02;
        p.loadFrac = 0.26;
        p.storeFrac = 0.09;
        p.mispredictRate = 0.10;
        p.numStaticBranches = 64;
        p.l2ResidentFrac = 0.08;
        p.farFrac = 0.004;
        p.seed = 101;
        return p;
    }
    if (n == "gcc") {
        // Large branchy code, many static branches, moderate misses.
        BenchmarkProfile p = makeIntBase();
        p.name = "gcc";
        p.condBranchFrac = 0.20;
        p.uncondBranchFrac = 0.04;
        p.loadFrac = 0.25;
        p.storeFrac = 0.12;
        p.mispredictRate = 0.09;
        p.numStaticBranches = 2048;
        p.codeLoopLength = 16384;
        p.l2ResidentFrac = 0.06;
        p.farFrac = 0.004;
        p.seed = 102;
        return p;
    }
    if (n == "go") {
        // The hardest-to-predict control of the suite.
        BenchmarkProfile p = makeIntBase();
        p.name = "go";
        p.condBranchFrac = 0.19;
        p.uncondBranchFrac = 0.03;
        p.loadFrac = 0.23;
        p.storeFrac = 0.08;
        p.mispredictRate = 0.13;
        p.takenBias = 0.5;
        p.numStaticBranches = 1024;
        p.codeLoopLength = 8192;
        p.l2ResidentFrac = 0.05;
        p.farFrac = 0.003;
        p.seed = 103;
        return p;
    }
    if (n == "m88ksim" || n == "m88" || n == "m88k") {
        // Far fewer branches and mispredicts than the other integer
        // codes (paper §3.1); less loop-length sensitivity.
        BenchmarkProfile p = makeIntBase();
        p.name = "m88ksim";
        p.condBranchFrac = 0.10;
        p.uncondBranchFrac = 0.02;
        p.loadFrac = 0.22;
        p.storeFrac = 0.08;
        p.mispredictRate = 0.025;
        p.numStaticBranches = 128;
        p.l2ResidentFrac = 0.03;
        p.farFrac = 0.001;
        p.seed = 104;
        return p;
    }
    if (n == "apsi") {
        // Long, narrow dependency chains restricting ILP (paper §3.1)
        // and heavy operand fan-out through a few registers, which is
        // what produces its ~1.5% operand miss rate under the DRA
        // (paper §6). Insensitive to pipeline length.
        BenchmarkProfile p = makeFpBase();
        p.name = "apsi";
        p.condBranchFrac = 0.04;
        p.loadFrac = 0.28;
        p.storeFrac = 0.12;
        p.mispredictRate = 0.03;
        p.l2ResidentFrac = 0.05;
        p.farFrac = 0.002;
        // Narrow chains: most sources come from the immediately
        // preceding producers...
        p.depDistWeights =
            {40, 20, 10, 5, 3, 2, 1, 1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
        p.serialChainFrac = 0.82;
        // ...but many sources fan out of a couple of hot registers
        // whose producers stay in flight, saturating the DRA's
        // insertion-table consumer count; a missed hot operand delays
        // the chain it feeds.
        p.hotSrcFrac = 0.45;
        p.hotRegCount = 1;
        p.hotWritePeriod = 96;
        p.secondSrcFrac = 0.8;
        p.seed = 105;
        return p;
    }
    if (n == "hydro2d" || n == "hydro") {
        // Dominated by main-memory latency (paper §3.1): large L1 and
        // L2 miss traffic; insensitive to pipeline length.
        BenchmarkProfile p = makeFpBase();
        p.name = "hydro2d";
        p.loadFrac = 0.30;
        p.storeFrac = 0.12;
        p.mispredictRate = 0.02;
        p.l2ResidentFrac = 0.05;
        p.farFrac = 0.11;
        p.seed = 106;
        return p;
    }
    if (n == "mgrid") {
        // Like hydro2d: memory bound, few branches.
        BenchmarkProfile p = makeFpBase();
        p.name = "mgrid";
        p.condBranchFrac = 0.02;
        p.loadFrac = 0.34;
        p.storeFrac = 0.08;
        p.mispredictRate = 0.01;
        p.l2ResidentFrac = 0.04;
        p.farFrac = 0.095;
        p.seed = 107;
        return p;
    }
    if (n == "su2cor") {
        // Few mis-speculations but long queuing delays in branch
        // resolution (paper §3.1): long FP chains feed its branches.
        BenchmarkProfile p = makeFpBase();
        p.name = "su2cor";
        p.condBranchFrac = 0.05;
        p.loadFrac = 0.30;
        p.storeFrac = 0.12;
        p.mispredictRate = 0.018;
        p.fpDivFrac = 0.02;
        p.l2ResidentFrac = 0.04;
        p.farFrac = 0.003;
        p.depDistWeights =
            {30, 16, 10, 8, 6, 5, 4, 3, 2, 2, 1.5, 1, 1, 1};
        p.seed = 108;
        return p;
    }
    if (n == "swim") {
        // Many loads, high L1 miss rate but L2 resident: the classic
        // load-resolution-loop victim (paper §3.1, §3.2).
        BenchmarkProfile p = makeFpBase();
        p.name = "swim";
        p.condBranchFrac = 0.025;
        p.loadFrac = 0.32;
        p.storeFrac = 0.10;
        p.mispredictRate = 0.008;
        p.l2ResidentFrac = 0.45;
        p.farFrac = 0.002;
        p.l2Bytes = 256 * 1024;
        // Vectorizable stencil code: very wide independent dependence
        // distances give the high ILP that makes swim load-loop bound.
        p.depDistWeights =
            {1, 1, 2, 2, 4, 5, 8, 10, 12, 12, 10, 8, 6, 4};
        p.seed = 109;
        return p;
    }
    if (n == "turb3d") {
        // Load-loop sensitive like swim, plus data TLB misses that
        // recover from the front of the pipe, and the widest operand
        // availability gaps (Figure 6).
        BenchmarkProfile p = makeFpBase();
        p.name = "turb3d";
        p.condBranchFrac = 0.05;
        p.loadFrac = 0.28;
        p.storeFrac = 0.12;
        p.mispredictRate = 0.02;
        p.l2ResidentFrac = 0.26;
        p.farFrac = 0.004;
        p.farStrideBytes = 16 * 1024;
        p.l2Bytes = 256 * 1024; // page-crossing: every far access
                                      // is a dTLB miss
        p.depDistWeights =
            {8, 7, 7, 7, 7, 7, 7, 7, 6, 6, 5, 5, 4, 4};
        p.seed = 110;
        return p;
    }

    fatal("unknown SPEC95 benchmark profile: ", name);
}

const std::vector<std::string> &
spec95Names()
{
    static const std::vector<std::string> names = {
        "compress", "gcc", "go", "m88ksim", "apsi",
        "hydro2d", "mgrid", "su2cor", "swim", "turb3d",
    };
    return names;
}

} // namespace loopsim
