/**
 * @file
 * GangCoordinator: machine-wide gang scheduling. At every gang epoch
 * it switches all node kernels to the next gang simultaneously,
 * emulating the coordinated scheduling the CM-5 requires for
 * protection. On SHRIMP it is purely a performance policy -- the
 * hardware protects communication under any schedule -- which is
 * exactly what bench_scheduling measures.
 */

#ifndef SHRIMP_CORE_GANG_HH
#define SHRIMP_CORE_GANG_HH

#include <vector>

#include "core/system.hh"

namespace shrimp
{

/** Rotates every kernel through a fixed list of gangs in lockstep. */
class GangCoordinator : public SimObject
{
  public:
    GangCoordinator(ShrimpSystem &sys, std::vector<std::uint32_t> gangs,
                    Tick epoch)
        : SimObject(sys.eventQueue(), "gangCoordinator"),
          _sys(sys),
          _gangs(std::move(gangs)),
          _epoch(epoch),
          _tick([this] { rotate(); }, "gang epoch")
    {
        SHRIMP_ASSERT(!_gangs.empty(), "no gangs to schedule");
        for (NodeId n = 0; n < _sys.numNodes(); ++n) {
            _sys.kernel(n).setSchedPolicy(SchedPolicy::GANG);
            _sys.kernel(n).setCurrentGang(_gangs[0]);
        }
        schedule(_tick, curTick() + _epoch);
    }

    std::uint64_t rotations() const { return _rotations; }

  private:
    void
    rotate()
    {
        _index = (_index + 1) % _gangs.size();
        ++_rotations;
        for (NodeId n = 0; n < _sys.numNodes(); ++n)
            _sys.kernel(n).setCurrentGang(_gangs[_index]);
        schedule(_tick, curTick() + _epoch);
    }

    ShrimpSystem &_sys;
    std::vector<std::uint32_t> _gangs;
    Tick _epoch;
    std::size_t _index = 0;
    std::uint64_t _rotations = 0;
    EventFunctionWrapper _tick;
};

} // namespace shrimp

#endif // SHRIMP_CORE_GANG_HH
