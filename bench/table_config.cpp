// Regenerates the machine-parameter summary of paper §2, with the
// process overlay (LOOPSIM_OVERLAY) applied like every run's. It takes
// no arguments. A bad LOOPSIM_* value, an overlay value its key cannot
// take or an overlay key the machine does not read exits 2 with
// nothing on stdout.
#include <cstdio>
#include <iostream>
#include <string>

#include "base/logging.hh"
#include "base/options.hh"
#include "core/machine_config.hh"
#include "harness/experiment.hh"

using namespace loopsim;

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "unexpected argument \"%s\"\nusage: %s\n",
                     argv[1], argv[0]);
        return 2;
    }
    RunSpec base;
    RunSpec dra;
    setDraPipeline(dra.overrides, 3);
    const Config base_cfg = effectiveRunConfig(base);
    MachineConfig base_machine;
    MachineConfig dra_machine;
    try {
        base_machine = MachineConfig::fromConfig(base_cfg);
        dra_machine = MachineConfig::fromConfig(effectiveRunConfig(dra));
    } catch (const FatalError &) {
        // fatal() has reported it.
        return 2;
    }
    // Both machines read the same keys, so the base build's unread
    // keys are the ones neither reads.
    std::string names;
    for (const std::string &key : base_cfg.unreadKeys()) {
        if (processOptions().overlay.count(key))
            names += " " + key;
    }
    if (!names.empty()) {
        std::fprintf(stderr, "LOOPSIM_OVERLAY sets keys that the machine "
                             "does not read (misspelled?):%s\n",
                     names.c_str());
        return 2;
    }
    std::cout << "=== Base machine configuration (paper section 2) ===\n";
    base_machine.print(std::cout);
    std::cout << "\n=== DRA machine (3-cycle register file) ===\n";
    dra_machine.print(std::cout);
    return 0;
}
