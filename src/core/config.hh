/**
 * @file
 * SystemConfig: every setting a caller varies on a simulated SHRIMP
 * machine, in one place. The paper's published hardware is fixed as
 * constants of the classes that model it: 60 MHz Pentium-class nodes
 * (Cpu), a 33.3 MHz 64-bit Xpress memory bus (XpressBus), a 33 MB/s
 * burst EISA expansion bus on the prototype receive path (EisaBus),
 * and a Paragon-style 2-D mesh backplane (Router).
 */

#ifndef SHRIMP_CORE_CONFIG_HH
#define SHRIMP_CORE_CONFIG_HH

#include "net/fault_model.hh"
#include "net/router.hh"
#include "nic/shrimp_ni.hh"
#include "os/dsm.hh"
#include "os/health.hh"
#include "os/kernel.hh"
#include "sim/types.hh"

namespace shrimp
{

/** Full machine configuration. */
struct SystemConfig
{
    unsigned meshWidth = 2;
    unsigned meshHeight = 2;

    /**
     * Simulated DRAM per node, which sets each kernel's frame budget
     * (one frame per page). Page contents cost host memory only once
     * written, so raising it costs no more than the per-frame
     * bookkeeping (NIPT entry, allocator state: about 100 B a frame)
     * until pages are written. Boot pins frames for every peer
     * (kernel channels, NX buffers, DSM links): from a 12x12 mesh on,
     * the 4 MB default runs out and boot panics asking for more.
     */
    Addr memBytesPerNode = 4 * 1024 * 1024;

    Router::Params router{};
    ShrimpNi::Params ni{};
    Kernel::Costs kernel{};

    /**
     * Kernel send admission control: bounded per-destination send
     * queues plus SUSPECT-peer fail-fast, surfacing overload to the
     * caller as err::WOULDBLOCK instead of unbounded queue growth.
     * Off by default (paper-exact blocking semantics).
     */
    AdmissionParams admission{};

    /**
     * Fault injection applied to every inter-router link at boot
     * (drop/corrupt/duplicate/reorder/outages; deterministic per
     * seed). Defaults to a clean mesh. Pair with ni.reliability to
     * keep mapped pages coherent over the resulting lossy fabric.
     */
    FaultModel::Params linkFaults{};

    /**
     * Heartbeat failure detection (health.enabled; needs
     * ni.reliability.enabled): every kernel keepalives every peer,
     * declaring silent ones SUSPECT/DEAD for mapping teardown and
     * recovery. Off by default; crashNode needs it to be noticed.
     */
    HealthParams health{};

    /**
     * Distributed shared memory over VMMC (dsm.enabled): a window of
     * dsm.numPages pages, home-interleaved across the nodes, demand-
     * paged over the kernel RPC channel with deliberate-DMA page
     * transfers. Off by default.
     */
    DsmConfig dsm{};

    /**
     * Record a structured event trace (packet lifecycles, DMA bursts,
     * kernel map/shootdown spans) exportable as Chrome trace-event
     * JSON via ShrimpSystem::tracer(). Off by default: with tracing
     * disabled no trace code runs beyond one pointer test, so timing
     * and statistics are bit-identical to an untraced build.
     */
    bool traceEnabled = false;

    unsigned numNodes() const { return meshWidth * meshHeight; }

    /** A 16-node (4x4) configuration like the paper's estimate. */
    static SystemConfig
    paper16()
    {
        SystemConfig cfg;
        cfg.meshWidth = 4;
        cfg.meshHeight = 4;
        return cfg;
    }
};

} // namespace shrimp

#endif // SHRIMP_CORE_CONFIG_HH
