/**
 * @file
 * Shared helpers for integration tests: building small systems,
 * loading programs, peeking at process memory from the host.
 */

#ifndef SHRIMP_TESTS_TEST_UTIL_HH
#define SHRIMP_TESTS_TEST_UTIL_HH

#include <memory>
#include <utility>

#include "core/system.hh"
#include "cpu/program.hh"
#include "os/process.hh"

namespace shrimp
{
namespace test
{

/** Finalize @p prog and hand it to @p proc, ready to run. */
inline void
loadProgram(Kernel &kernel, Process &proc, Program &&prog)
{
    prog.finalize();
    kernel.loadAndReady(proc,
                        std::make_shared<Program>(std::move(prog)));
}

/** Host read of a 32-bit word in a process's virtual memory. */
inline std::uint32_t
peek32(ShrimpSystem &sys, NodeId node, Process &proc, Addr vaddr)
{
    Translation t = proc.space().translate(vaddr, false);
    if (!t.ok())
        return 0xdead'dead;
    return static_cast<std::uint32_t>(
        sys.node(node).mem.readInt(t.paddr, 4));
}

/** Host write of a 32-bit word into a process's virtual memory. */
inline void
poke32(ShrimpSystem &sys, NodeId node, Process &proc, Addr vaddr,
       std::uint32_t value)
{
    Translation t = proc.space().translate(vaddr, true);
    sys.node(node).mem.writeInt(t.paddr, value, 4);
}

/** The counters of a component built without a ShrimpSystem, keyed
 *  by stat path from the component's own group (`cpu.interrupts`). */
inline stats::Snapshot
snapshotOf(const stats::Group &group)
{
    stats::Snapshot snap;
    group.snapshotInto(snap);
    return snap;
}

/** A small two-node system (1x2 mesh) with kernel services booted. */
inline SystemConfig
twoNodeConfig()
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    return cfg;
}

} // namespace test
} // namespace shrimp

#endif // SHRIMP_TESTS_TEST_UTIL_HH
