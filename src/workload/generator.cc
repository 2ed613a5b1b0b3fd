#include "workload/generator.hh"

#include <algorithm>

#include "base/logging.hh"

namespace loopsim
{

namespace
{

/** How many recent producers the dependence model can reach back to. */
constexpr std::size_t recentRingCap = 160;

/** Global (long-lived) registers are rewritten this rarely. */
constexpr std::uint64_t globalWritePeriod = 8192;

/** SplitMix64: stable scrambling for position-keyed decisions. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // anonymous namespace

void
TraceSource::nextWrongPath(MicroOp &op, SeqNum resume_seq)
{
    // Plain filler: an ALU op with no dependences. Subclasses provide
    // something with a realistic mix.
    op = MicroOp{};
    op.opClass = OpClass::IntAlu;
    op.wrongPath = true;
    op.seq = resume_seq;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(BenchmarkProfile profile,
                                                 ThreadId thread,
                                                 std::uint64_t num_ops)
    : prof(std::move(profile)), tid(thread), numOps(num_ops),
      rng(prof.seed ^ (std::uint64_t(thread) * 0x2545f4914f6cdd1dULL),
          0x5851f42d4c957f2dULL + thread),
      recentRing(recentRingCap, invalidArchReg), wpRng(0, 0),
      codeBase((Addr(thread) + 1) << 36 | 0x10000000ULL),
      hotBase((Addr(thread) + 1) << 36 | 0x20000000ULL),
      l2Base((Addr(thread) + 1) << 36 | 0x30000000ULL),
      farBase((Addr(thread) + 1) << 36 | 0x40000000ULL)
{
    prof.validate();
    fatal_if(num_ops == 0, "empty trace requested");

    std::vector<double> weights;
    double mix = prof.intMultFrac + prof.fpAddFrac + prof.fpMultFrac +
                 prof.fpDivFrac + prof.loadFrac + prof.storeFrac +
                 prof.condBranchFrac + prof.uncondBranchFrac +
                 prof.nopFrac + prof.barrierFrac;
    weights.push_back(1.0 - mix); // IntAlu takes the remainder
    weights.push_back(prof.intMultFrac);
    weights.push_back(prof.fpAddFrac);
    weights.push_back(prof.fpMultFrac);
    weights.push_back(prof.fpDivFrac);
    weights.push_back(prof.loadFrac);
    weights.push_back(prof.storeFrac);
    weights.push_back(prof.condBranchFrac);
    weights.push_back(prof.uncondBranchFrac);
    weights.push_back(prof.nopFrac);
    weights.push_back(prof.barrierFrac);
    classDist = DiscreteDistribution(weights);
    depDist = DiscreteDistribution(prof.depDistWeights);
}

OpClass
SyntheticTraceGenerator::classAt(std::uint64_t pc_index) const
{
    // Stable per static code position: the synthetic "binary" does not
    // change between loop iterations or runs.
    Pcg32 pos_rng(mix64(prof.seed * 0x9e3779b97f4a7c15ULL + pc_index),
                  0xda3e39cb94b95bdbULL);
    auto idx = classDist.sample(pos_rng);
    static constexpr OpClass classes[] = {
        OpClass::IntAlu, OpClass::IntMult, OpClass::FpAdd,
        OpClass::FpMult, OpClass::FpDiv, OpClass::Load, OpClass::Store,
        OpClass::BranchCond, OpClass::BranchUncond, OpClass::Nop,
        OpClass::MemBarrier,
    };
    return classes[idx];
}

double
SyntheticTraceGenerator::siteBias(std::uint64_t site) const
{
    // Per-site stable taken bias: a bimodal population centred so the
    // population mean tracks prof.takenBias. Strongly biased sites are
    // easy for real predictors; mid sites are hard.
    double u = (mix64(prof.seed + site * 0x100000001b3ULL) >> 11) *
               (1.0 / 9007199254740992.0);
    double v = (mix64(prof.seed ^ (site * 0xc2b2ae3d27d4eb4fULL)) >> 11) *
               (1.0 / 9007199254740992.0);
    if (u < prof.takenBias * 0.8)
        return 0.9 + 0.1 * v;        // strongly taken (loop back-edges)
    if (u < prof.takenBias * 0.8 + (1.0 - prof.takenBias) * 0.8)
        return 0.1 * v;              // strongly not-taken
    return 0.3 + 0.4 * v;            // genuinely hard
}

ArchReg
SyntheticTraceGenerator::recentProducer(std::size_t k) const
{
    if (k == 0 || k > recentCount)
        return invalidArchReg;
    std::size_t idx = (recentHead + recentRingCap - k) % recentRingCap;
    return recentRing[idx];
}

void
SyntheticTraceGenerator::recordDest(ArchReg reg)
{
    recentRing[recentHead] = reg;
    recentHead = (recentHead + 1) % recentRingCap;
    recentCount = std::min(recentCount + 1, recentRingCap);
}

ArchReg
SyntheticTraceGenerator::pickSource()
{
    if (rng.chance(prof.longLivedSrcFrac)) {
        return RegLayout::globalBase +
               static_cast<ArchReg>(rng.nextBounded(RegLayout::globalCount));
    }
    if (prof.hotSrcFrac > 0.0 && rng.chance(prof.hotSrcFrac)) {
        return RegLayout::hotBase +
               static_cast<ArchReg>(rng.nextBounded(prof.hotRegCount));
    }
    unsigned dist = BenchmarkProfile::depDistances()[depDist.sample(rng)];
    ArchReg r = recentProducer(dist);
    if (r == invalidArchReg) {
        // Cold start or beyond the window: an old general register.
        r = static_cast<ArchReg>(rng.nextBounded(RegLayout::generalCount));
    }
    return r;
}

ArchReg
SyntheticTraceGenerator::pickFirstSource()
{
    // Serial-chain programs feed each op from the producer directly
    // before it, building one long narrow dependency chain.
    if (prof.serialChainFrac > 0.0 && rng.chance(prof.serialChainFrac)) {
        ArchReg r = recentProducer(1);
        if (r != invalidArchReg)
            return r;
    }
    return pickSource();
}

ArchReg
SyntheticTraceGenerator::pickDest()
{
    if (globalWritePending) {
        globalWritePending = false;
        return RegLayout::globalBase +
               static_cast<ArchReg>(globalCursor++ % RegLayout::globalCount);
    }
    if (hotWritePending) {
        hotWritePending = false;
        return RegLayout::hotBase +
               static_cast<ArchReg>(hotCursor++ % prof.hotRegCount);
    }
    return static_cast<ArchReg>(destCursor++ % RegLayout::generalCount);
}

Addr
SyntheticTraceGenerator::pickDataAddr()
{
    double u = rng.nextDouble();
    if (u < prof.farFrac) {
        Addr a = farBase + farPtr;
        farPtr = (farPtr + prof.farStrideBytes) & ((1ULL << 30) - 1);
        return a;
    }
    if (u < prof.farFrac + prof.l2ResidentFrac) {
        return l2Base + 8 * rng.range(0, prof.l2Bytes / 8 - 1);
    }
    return hotBase + 8 * rng.range(0, prof.hotBytes / 8 - 1);
}

void
SyntheticTraceGenerator::fillOperands(MicroOp &op)
{
    switch (op.opClass) {
      case OpClass::Load:
        op.src[0] = pickFirstSource();
        op.dest = pickDest();
        op.effAddr = pickDataAddr();
        break;
      case OpClass::Store:
        op.src[0] = pickSource(); // address base
        op.src[1] = pickFirstSource(); // store data
        op.effAddr = pickDataAddr();
        break;
      case OpClass::BranchCond:
        op.src[0] = pickFirstSource();
        if (rng.chance(0.2))
            op.src[1] = pickSource();
        break;
      case OpClass::BranchUncond:
        if (rng.chance(0.2))
            op.src[0] = pickSource(); // indirect target
        if (rng.chance(0.3))
            op.dest = pickDest();     // call: link register
        break;
      case OpClass::Nop:
      case OpClass::MemBarrier:
        break;
      default: // ALU and FP classes
        op.src[0] = pickFirstSource();
        if (rng.chance(prof.secondSrcFrac))
            op.src[1] = pickSource();
        op.dest = pickDest();
        break;
    }
    if (op.hasDest())
        recordDest(op.dest);
}

bool
SyntheticTraceGenerator::next(MicroOp &op)
{
    if (count >= numOps)
        return false;

    op = MicroOp{};
    op.seq = count;
    op.tid = tid;
    op.pc = codeBase + 4 * (pcIndex % prof.codeLoopLength);
    op.opClass = classAt(pcIndex % prof.codeLoopLength);

    // Schedule periodic writes of hot/global registers; the write lands
    // on the next op that produces a register.
    if (prof.hotSrcFrac > 0.0 && count % prof.hotWritePeriod == 0)
        hotWritePending = true;
    if (count % globalWritePeriod == 0)
        globalWritePending = true;

    fillOperands(op);

    if (op.isBranch()) {
        std::uint64_t site =
            (pcIndex % prof.codeLoopLength) % prof.numStaticBranches;
        if (op.isCondBranch()) {
            op.taken = rng.chance(siteBias(site));
            op.forceMispredict = rng.chance(prof.mispredictRate);
        } else {
            op.taken = true;
            op.forceMispredict = rng.chance(prof.uncondMispredictRate);
        }
        op.target = codeBase +
                    4 * (mix64(prof.seed + site) % prof.codeLoopLength);
    }

    ++count;
    ++pcIndex;
    return true;
}

void
SyntheticTraceGenerator::nextWrongPath(MicroOp &op, SeqNum resume_seq)
{
    if (wpKey != resume_seq) {
        // New misprediction event: reseed the side stream so the
        // wrong path is deterministic for a given resume point.
        wpKey = resume_seq;
        wpRng = Pcg32(mix64(prof.seed ^ resume_seq),
                      0x14057b7ef767814fULL + tid);
        wpDestCursor = mix64(resume_seq) % RegLayout::generalCount;
    }

    op = MicroOp{};
    op.wrongPath = true;
    op.seq = invalidSeqNum;
    op.tid = tid;
    op.pc = codeBase + 4 * wpRng.nextBounded(prof.codeLoopLength);

    static constexpr OpClass classes[] = {
        OpClass::IntAlu, OpClass::IntMult, OpClass::FpAdd,
        OpClass::FpMult, OpClass::FpDiv, OpClass::Load, OpClass::Store,
        OpClass::BranchCond, OpClass::BranchUncond, OpClass::Nop,
        OpClass::MemBarrier,
    };
    op.opClass = classes[classDist.sample(wpRng)];

    // Wrong-path operands read recent correct-path producers (they were
    // renamed before the squash) or random generals; destinations cycle
    // the general pool.
    auto wp_source = [&]() -> ArchReg {
        unsigned dist =
            BenchmarkProfile::depDistances()[depDist.sample(wpRng)];
        ArchReg r = recentProducer(dist);
        if (r == invalidArchReg)
            r = static_cast<ArchReg>(
                wpRng.nextBounded(RegLayout::generalCount));
        return r;
    };

    switch (op.opClass) {
      case OpClass::Load:
        op.src[0] = wp_source();
        op.dest = static_cast<ArchReg>(
            wpDestCursor++ % RegLayout::generalCount);
        op.effAddr = hotBase + 8 * wpRng.range(0, prof.hotBytes / 8 - 1);
        break;
      case OpClass::Store:
        op.src[0] = wp_source();
        op.src[1] = wp_source();
        op.effAddr = hotBase + 8 * wpRng.range(0, prof.hotBytes / 8 - 1);
        break;
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
        op.src[0] = wp_source();
        op.taken = false;
        break;
      case OpClass::Nop:
      case OpClass::MemBarrier:
        break;
      default:
        op.src[0] = wp_source();
        if (wpRng.chance(prof.secondSrcFrac))
            op.src[1] = wp_source();
        op.dest = static_cast<ArchReg>(
            wpDestCursor++ % RegLayout::generalCount);
        break;
    }
}

} // namespace loopsim
