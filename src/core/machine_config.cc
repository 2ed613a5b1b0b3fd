#include "core/machine_config.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/str.hh"
#include "sim/config.hh"

namespace loopsim
{

namespace
{

LoadRecovery
parseLoadRecovery(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "reissue")
        return LoadRecovery::Reissue;
    if (n == "refetch")
        return LoadRecovery::Refetch;
    if (n == "stall")
        return LoadRecovery::Stall;
    fatal("unknown load recovery mode: ", name);
}

FetchPolicy
parseFetchPolicy(const std::string &name)
{
    std::string n = toLower(trim(name));
    if (n == "icount")
        return FetchPolicy::ICount;
    if (n == "roundrobin" || n == "rr")
        return FetchPolicy::RoundRobin;
    fatal("unknown fetch policy: ", name);
}

const char *
loadRecoveryName(LoadRecovery r)
{
    switch (r) {
      case LoadRecovery::Reissue: return "reissue";
      case LoadRecovery::Refetch: return "refetch";
      case LoadRecovery::Stall: return "stall";
      default: panic("unknown load recovery");
    }
}

} // anonymous namespace

MachineConfig
MachineConfig::fromConfig(const Config &cfg)
{
    MachineConfig m;
    m.width = static_cast<unsigned>(cfg.getUint("core.width", m.width));
    m.iqEntries = static_cast<unsigned>(
        cfg.getUint("core.iq.entries", m.iqEntries));
    m.robEntries = static_cast<unsigned>(
        cfg.getUint("core.rob.entries", m.robEntries));
    m.numClusters = static_cast<unsigned>(
        cfg.getUint("core.clusters", m.numClusters));

    m.decIqLatency = static_cast<unsigned>(
        cfg.getUint("core.dec_iq", m.decIqLatency));
    m.iqExLatency = static_cast<unsigned>(
        cfg.getUint("core.iq_ex", m.iqExLatency));
    m.regfileLatency = static_cast<unsigned>(
        cfg.getUint("core.regfile_latency", m.regfileLatency));
    m.loadFeedback = static_cast<unsigned>(
        cfg.getUint("core.load_feedback", m.loadFeedback));
    m.fwdBufferDepth = static_cast<unsigned>(
        cfg.getUint("core.fwd_depth", m.fwdBufferDepth));
    m.tlbWalkPenalty = static_cast<unsigned>(
        cfg.getUint("mem.tlb.walk", m.tlbWalkPenalty));

    m.loadRecovery =
        parseLoadRecovery(cfg.getString("core.load_recovery", "reissue"));
    m.memOrderTraps = cfg.getBool("core.memdep.enable", m.memOrderTraps);
    m.memDepEntries = static_cast<unsigned>(
        cfg.getUint("core.memdep.entries", m.memDepEntries));
    m.memDepClear = cfg.getUint("core.memdep.clear", m.memDepClear);
    m.killAllInShadow =
        cfg.getBool("core.kill_all_in_shadow", m.killAllInShadow);
    m.wrongPathFetch = cfg.getBool("core.wrong_path", m.wrongPathFetch);

    m.dra = cfg.getBool("dra.enable", false);
    m.crcEntries = static_cast<unsigned>(
        cfg.getUint("dra.crc.entries", m.crcEntries));
    m.crcRepl = cfg.getString("dra.crc.repl", "fifo");
    m.insertionTableBits = static_cast<unsigned>(
        cfg.getUint("dra.insertion_bits", m.insertionTableBits));
    m.crcTimeout = cfg.getUint("dra.crc.timeout", m.crcTimeout);

    m.fetchPolicy =
        parseFetchPolicy(cfg.getString("core.fetch_policy", "icount"));

    if (m.dra)
        m.applyDra();
    m.validate();
    return m;
}

void
MachineConfig::applyDra()
{
    dra = true;
    // §6: the RF read leaves the IQ-EX path; one of its cycles remains
    // for the forwarding-buffer/CRC lookup. The DEC-IQ path must cover
    // rename (2 cycles) plus the RF pre-read.
    fatal_if(iqExLatency < regfileLatency + 2,
             "base IQ-EX latency (", iqExLatency,
             ") must include the RF access (", regfileLatency,
             ") plus issue/payload cycles");
    iqExLatency = iqExLatency - regfileLatency + 1;
    decIqLatency = std::max(decIqLatency, 2 + regfileLatency);
}

void
MachineConfig::validate() const
{
    fatal_if(width == 0 || width > 16, "core width out of range");
    fatal_if(numClusters == 0 || numClusters > width * 2,
             "cluster count out of range");
    fatal_if(iqEntries < width, "IQ smaller than issue width");
    fatal_if(robEntries < iqEntries,
             "in-flight window smaller than the IQ");
    fatal_if(numPhysRegs < 2 * 64 + robEntries,
             "too few physical registers for the architectural state "
             "of two threads plus ", robEntries, " in flight");
    fatal_if(decIqLatency < 3, "DEC-IQ latency must be >= 3");
    fatal_if(iqExLatency < 2, "IQ-EX latency must be >= 2");
    fatal_if(!dra && iqExLatency < regfileLatency + 2,
             "base IQ-EX latency must cover the register file access");
    fatal_if(fwdBufferDepth == 0, "forwarding buffer depth must be >= 1");
    fatal_if(dra && crcEntries == 0, "CRC must have entries");
    fatal_if(dra && (insertionTableBits == 0 || insertionTableBits > 8),
             "insertion table width out of range");
}

void
MachineConfig::print(std::ostream &os) const
{
    os << "width                 " << width << "\n"
       << "iq entries            " << iqEntries << "\n"
       << "rob entries           " << robEntries << "\n"
       << "phys regs             " << numPhysRegs << "\n"
       << "clusters              " << numClusters << "\n"
       << "front latency         " << frontLatency << "\n"
       << "dec-iq latency        " << decIqLatency << "\n"
       << "iq-ex latency         " << iqExLatency << "\n"
       << "regfile latency       " << regfileLatency << "\n"
       << "load feedback         " << loadFeedback << "\n"
       << "branch feedback       " << branchFeedback << "\n"
       << "iq clear delay        " << iqClearDelay << "\n"
       << "fwd buffer depth      " << fwdBufferDepth << "\n"
       << "load recovery         " << loadRecoveryName(loadRecovery)
       << "\n"
       << "mem order traps       " << (memOrderTraps ? "yes" : "no")
       << "\n"
       << "kill all in shadow    " << (killAllInShadow ? "yes" : "no")
       << "\n"
       << "wrong-path fetch      " << (wrongPathFetch ? "yes" : "no")
       << "\n"
       << "dra                   " << (dra ? "yes" : "no") << "\n";
    if (dra) {
        os << "crc entries/cluster   " << crcEntries << "\n"
           << "crc replacement       " << crcRepl << "\n"
           << "insertion table bits  " << insertionTableBits << "\n";
    }
}

std::string
MachineConfig::pipeLabel() const
{
    return std::to_string(decIqLatency) + "_" + std::to_string(iqExLatency);
}

} // namespace loopsim
