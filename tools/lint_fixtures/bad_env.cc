// Fixture: ambient-environment reads loop_lint.py must reject.
// Never compiled; consumed by `loop_lint.py --self-test`.

#include <cstdlib>

extern char **environ;

namespace loopsim_fixture
{

bool debugMissLatched()
{
    // A knob read beside the module it steers: unchecked and untested.
    return std::getenv("LOOPSIM_DEBUG_MISS") != nullptr;
}

const char *storeDir()
{
    return secure_getenv("LOOPSIM_STORE");
}

} // namespace loopsim_fixture
