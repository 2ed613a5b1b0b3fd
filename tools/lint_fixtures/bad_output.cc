// Fixture: bare-output shapes loop_lint.py must reject.
// Never compiled; consumed by `loop_lint.py --self-test`.

#include <cstdio>
#include <iostream>

namespace loopsim_fixture
{

void chattyStage(int ipc)
{
    std::cout << "ipc=" << ipc << "\n";
}

void chattyStageC(int ipc)
{
    printf("ipc=%d\n", ipc);
}

void chattyTraceHook(int slot)
{
    // Raw cerr interleaves mid-line under parallel campaigns; trace
    // hooks record an event on the Core's recorder instead.
    std::cerr << "[pool " << slot << "] alloc\n";
}

} // namespace loopsim_fixture
