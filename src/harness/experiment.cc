#include "harness/experiment.hh"

#include <bit>
#include <cmath>
#include <memory>
#include <sstream>

#include "base/logging.hh"
#include "base/options.hh"
#include "core/core.hh"
#include "core/machine_config.hh"
#include "integrity/fault_injector.hh"
#include "integrity/sim_error.hh"
#include "integrity/watchdog.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

namespace loopsim
{

void
setRunOverlay(const Config &overlay)
{
    processOptions().overlay = overlay.entries();
}

void
clearRunOverlay()
{
    processOptions().overlay.clear();
}

/** Defaults < spec overrides < the process overlay. The defaults are
 *  constants, so they are built once and copied: every fingerprint of
 *  a warm campaign resolves a config. */
Config
effectiveRunConfig(const RunSpec &spec)
{
    static const Config defaults = defaultFigureConfig();
    Config cfg = defaults;
    cfg.overlay(spec.overrides);
    for (const auto &[key, value] : processOptions().overlay)
        cfg.set(key, value);
    return cfg;
}

double
RunResult::scalar(const std::string &name) const
{
    auto it = scalars.find(name);
    fatal_if(it == scalars.end(), "no such scalar in RunResult: ", name);
    return it->second;
}

const char *
failKindName(FailKind kind)
{
    switch (kind) {
      case FailKind::None: return "";
      case FailKind::Sim: return "fail";
      case FailKind::Crash: return "crash";
      case FailKind::Timeout: return "timeout";
    }
    return "fail";
}

namespace
{
/** Quiet-NaN bit base; the low bits carry the FailKind tag. */
constexpr std::uint64_t kQuietNanBits = 0x7ff8000000000000ull;
} // anonymous namespace

double
failPoint(FailKind kind)
{
    return std::bit_cast<double>(kQuietNanBits |
                                 static_cast<std::uint64_t>(kind));
}

FailKind
pointFailKind(double v)
{
    if (std::isfinite(v))
        return FailKind::None;
    switch (std::bit_cast<std::uint64_t>(v) & 0x7u) {
      case static_cast<std::uint64_t>(FailKind::Crash):
        return FailKind::Crash;
      case static_cast<std::uint64_t>(FailKind::Timeout):
        return FailKind::Timeout;
      default:
        // Untagged NaNs (std::nan(""), arithmetic on a failed point)
        // degrade to the generic in-process failure.
        return FailKind::Sim;
    }
}

Config
defaultFigureConfig()
{
    Config cfg;
    // The paper's base machine (§2); all values are also the
    // MachineConfig defaults, set explicitly here for documentation.
    cfg.setUint("core.width", 8);
    cfg.setUint("core.iq.entries", 128);
    cfg.setUint("core.rob.entries", 256);
    cfg.setUint("core.clusters", 8);
    cfg.setUint("core.dec_iq", 5);
    cfg.setUint("core.iq_ex", 5);
    cfg.setUint("core.regfile_latency", 3);
    cfg.setUint("core.fwd_depth", 9);
    cfg.setUint("core.load_feedback", 3);
    cfg.set("core.load_recovery", "reissue");
    return cfg;
}

void
setPipeline(Config &cfg, unsigned dec_iq, unsigned iq_ex)
{
    fatal_if(iq_ex < 3, "IQ-EX latency must be >= 3 for a sweep point");
    cfg.setUint("core.dec_iq", dec_iq);
    cfg.setUint("core.iq_ex", iq_ex);
    cfg.setUint("core.regfile_latency", iq_ex - 2);
}

void
setBasePipeline(Config &cfg, unsigned regfile_latency)
{
    cfg.setBool("dra.enable", false);
    cfg.setUint("core.dec_iq", 5);
    cfg.setUint("core.iq_ex", regfile_latency + 2);
    cfg.setUint("core.regfile_latency", regfile_latency);
}

void
setDraPipeline(Config &cfg, unsigned regfile_latency)
{
    cfg.setBool("dra.enable", true);
    // MachineConfig::applyDra() derives IQ-EX = 3 and
    // DEC-IQ = max(5, rf + 2) from the base values.
    cfg.setUint("core.dec_iq", 5);
    cfg.setUint("core.iq_ex", regfile_latency + 2);
    cfg.setUint("core.regfile_latency", regfile_latency);
}

namespace
{

/**
 * Process-fault targeting: the crash_at_op / hang_at_op knobs apply
 * only to cells whose figure label contains the corresponding target
 * substring, so a campaign-wide overlay can poison selected cells
 * while the rest of the sweep stays byte-identical to a clean run.
 * An empty target means every cell.
 */
void
gateProcessFaults(Config &cfg, const Workload &workload)
{
    if (!cfg.getBool("integrity.fault.enable", false))
        return;
    const std::string label = figureLabel(workload);
    const auto gate = [&](const char *target_key, const char *op_key) {
        std::string target = cfg.getString(target_key, "");
        if (!target.empty() && label.find(target) == std::string::npos)
            cfg.setUint(op_key, 0);
    };
    gate("integrity.fault.crash_target", "integrity.fault.crash_at_op");
    gate("integrity.fault.hang_target", "integrity.fault.hang_at_op");
}

/**
 * Everything one run builds from its spec and configuration: the trace
 * generators, the core, the kernel and the watchdog. Building it reads
 * every key the run reads before its first cycle.
 */
struct RunSetup
{
    Config cfg; ///< records every key the build read
    std::vector<std::unique_ptr<SyntheticTraceGenerator>> gens;
    std::unique_ptr<Core> core;
    Simulator sim;
    std::unique_ptr<InvariantWatchdog> watchdog;

    RunSetup(const RunSpec &spec, Config config) : cfg(std::move(config))
    {
        fatal_if(spec.workload.threads.empty(), "empty workload");
        fatal_if(spec.totalOps == 0, "zero-length run");

        gateProcessFaults(cfg, spec.workload);

        // Distribute the op budget across threads, spreading the division
        // remainder over the first threads so SMT pairings run exactly the
        // requested total instead of silently dropping up to n-1 ops.
        std::size_t n_threads = spec.workload.threads.size();
        std::uint64_t total = spec.totalOps + spec.warmupOps;
        std::uint64_t per_thread_base = total / n_threads;
        std::uint64_t remainder = total % n_threads;

        std::vector<TraceSource *> sources;
        std::uint64_t assigned = 0;
        for (std::size_t t = 0; t < n_threads; ++t) {
            std::uint64_t ops = per_thread_base + (t < remainder ? 1 : 0);
            assigned += ops;
            gens.push_back(std::make_unique<SyntheticTraceGenerator>(
                spec.workload.threads[t], static_cast<ThreadId>(t), ops));
            sources.push_back(gens.back().get());
        }
        panic_if(assigned != total, "op distribution does not reconcile: ",
                 assigned, " assigned of ", total);

        core = std::make_unique<Core>(cfg, sources);
        sim.add(core.get());
        sim.enableProfiling(true);

        if (cfg.getBool("integrity.watchdog.enable", true)) {
            watchdog = std::make_unique<InvariantWatchdog>(
                *core, WatchdogConfig::fromConfig(cfg));
            sim.add(watchdog.get());
        }
    }
};

RunResult
runOnceWith(const RunSpec &spec, Config cfg)
{
    RunSetup run(spec, std::move(cfg));
    Core &core = *run.core;
    Simulator &sim = run.sim;

    auto cycle_limit_error = [&](const char *phase) {
        std::ostringstream dump;
        core.debugDump(dump);
        std::ostringstream msg;
        msg << spec.workload.label << ": " << phase
            << " exhausted the cycle budget of " << spec.maxCycles
            << " (deadlock or starvation?)";
        return CycleLimitError(phase, spec.maxCycles, msg.str(),
                               dump.str());
    };

    // Warmup phase: run until the warmup ops retired, then reset the
    // statistics and measure the rest of the trace.
    while (spec.warmupOps > 0 && core.retiredOps() < spec.warmupOps &&
           !core.done()) {
        sim.run(1024);
        if (sim.now() > spec.maxCycles)
            throw cycle_limit_error("warmup");
    }
    core.beginMeasurement();

    sim.run(spec.maxCycles);
    if (sim.hitCycleLimit())
        throw cycle_limit_error("measure");

    RunResult res;
    res.workloadLabel = figureLabel(spec.workload);
    res.pipeLabel = core.machine().pipeLabel();
    res.cycles = core.cyclesRun();
    res.ipc = core.ipc();

    const auto &src_vec = core.operandSourceStat();
    for (std::size_t i = 0; i < src_vec.size(); ++i) {
        res.operandSourceFractions.push_back(src_vec.fraction(i));
        res.operandSourceCounts.push_back(src_vec.bin(i));
    }

    const auto &gap = core.operandGapStat();
    res.gapCdf.reserve(129);
    for (unsigned c = 0; c <= 128; ++c)
        res.gapCdf.push_back(gap.cdf(static_cast<double>(c)));

    for (const auto &[name, stat] : core.exportedStats())
        res.scalars[name] = stat->value();
    res.retired = static_cast<std::uint64_t>(res.scalar("retired"));
    // Warmup checks its target once per 1024-cycle chunk, so at tiny
    // op counts it can run into the measured budget and consume it
    // all. Such a cell has no IPC to report: fail it rather than hand
    // the figure a zero.
    if (res.retired == 0) {
        throw SimError("empty-window",
                       spec.workload.label +
                           ": the measured window retired no ops "
                           "(warmup consumed the trace; raise the op "
                           "count)");
    }
    if (const FaultInjector *fi = core.faultInjector())
        res.scalars["faultsInjected"] =
            static_cast<double>(fi->totalInjected());

    // Observability extractions: the loop-event trace (empty unless
    // collection is on) and the kernel self-profile.
    res.loopEvents = core.takeLoopTrace();
    res.tickProfile = sim.profile();

    return res;
}

} // anonymous namespace

RunResult
runOnce(const RunSpec &spec)
{
    return runOnceWith(spec, effectiveRunConfig(spec));
}

RunResult
runOnceResilient(const RunSpec &spec, const RetryPolicy &)
{
    return runOnceResilientWith(spec, effectiveRunConfig(spec));
}

RunResult
runOnceResilientWith(const RunSpec &spec, const Config &resolved)
{
    try {
        return runOnceWith(spec, resolved);
    } catch (const SimError &err) {
        warn("run \"", spec.workload.label, "\" failed (", err.kind(),
             "): ", err.what());
        return failedRun(spec, resolved, FailKind::Sim, err.what());
    }
}

std::vector<std::string>
checkRunConfig(const RunSpec &spec, const Config &resolved)
{
    return RunSetup(spec, resolved).cfg.unreadKeys();
}

RunResult
failedRun(const RunSpec &spec, const Config &resolved, FailKind kind,
          const std::string &error, const std::string &fallback_label)
{
    RunResult res;
    res.failed = true;
    res.failKind = kind;
    res.error = error;
    res.ipc = failPoint(kind);
    try {
        res.workloadLabel = figureLabel(spec.workload);
        res.pipeLabel = MachineConfig::fromConfig(resolved).pipeLabel();
    } catch (const std::exception &) {
        // The spec or its configuration is itself the fault.
    }
    if (res.workloadLabel.empty())
        res.workloadLabel = fallback_label.empty() ? "?" : fallback_label;
    if (res.pipeLabel.empty())
        res.pipeLabel = "?";
    return res;
}

double
speedup(const RunResult &test, const RunResult &baseline)
{
    // Fail-soft points propagate their verdict through the ratio so
    // the figure cell still renders as fail/crash/timeout.
    if (test.failed)
        return failPoint(test.failKind);
    if (baseline.failed)
        return failPoint(baseline.failKind);
    fatal_if(baseline.ipc <= 0.0, "baseline run retired nothing");
    return test.ipc / baseline.ipc;
}

} // namespace loopsim
