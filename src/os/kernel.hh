/**
 * @file
 * Kernel: the per-node operating system.
 *
 * Responsibilities, mirroring the paper's system design:
 *  - processes and general multiprogramming (round-robin scheduler
 *    with preemption; the paper's design explicitly supports arbitrary
 *    scheduling policies because protection lives in the mapping);
 *  - kernel links: the boot-time page pairs toward each peer that
 *    carry kernel-to-kernel traffic, opened by the kernel services
 *    and wired by the kernel;
 *  - the map()/unmap() syscalls: protection checking and NIPT setup,
 *    performed via kernel-to-kernel RPC over an in-band channel (an
 *    automatic-update link per node pair with interrupt-on-arrival
 *    set);
 *  - NIPT consistency (Section 4.4): PIN policy (mapped-in frames are
 *    pinned) or INVALIDATE policy (TLB-shootdown-style invalidation of
 *    remote NIPT entries before paging, with page faults re-
 *    establishing invalidated mappings on demand);
 *  - interrupt handling: packet-arrival interrupts (kernel links and
 *    user WAIT_ARRIVAL) and the outgoing-FIFO threshold interrupt that
 *    stalls the CPU until the FIFO drains;
 *  - the NX/2 kernel-level baseline (csend/crecv through kernel
 *    buffers with syscalls, copies and per-message interrupts), used
 *    for the paper's overhead comparison.
 *
 * All kernel work is charged to the CPU in instructions, so software
 * overheads of kernel-mediated paths are measured in the same units as
 * the user-level primitives of Table 1.
 */

#ifndef SHRIMP_OS_KERNEL_HH
#define SHRIMP_OS_KERNEL_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cpu/cpu.hh"
#include "nic/shrimp_ni.hh"
#include "os/health.hh"
#include "os/process.hh"
#include "os/syscalls.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "vm/frame_allocator.hh"

namespace shrimp
{

class Dsm;
struct DsmConfig;
class MapManager;
class NxService;

/**
 * A kernel link's local frames: a pinned page pair toward one peer
 * (Kernel::openLink). Boot maps the out frame onto the in frame of the
 * peer's matching link, so each side's stores to its out frame land in
 * the other's in frame.
 */
struct KernelLink
{
    PageNum in = INVALID_PAGE;      //!< receives the peer's stores
    PageNum out = INVALID_PAGE;     //!< mapped onto the peer's in frame
};

/** A kernel service that takes arrival interrupts on its links. */
class LinkHandler
{
  public:
    /** Peer @p peer stored into the in frame of one of our interrupting
     *  links toward it; returns the instructions of kernel work done. */
    virtual std::uint64_t handleArrival(NodeId peer) = 0;

  protected:
    ~LinkHandler() = default;
};

/** How the kernel keeps remote NIPTs consistent with local paging. */
enum class ConsistencyPolicy : std::uint8_t
{
    PIN,            //!< pin mapped-in frames; eviction refused
    INVALIDATE,     //!< shoot down remote NIPT entries, then evict
};

/**
 * Scheduling policy. The SHRIMP hardware supports arbitrary
 * multiprogramming, so the choice is purely a performance experiment
 * (unlike the CM-5, whose protection requires gang scheduling).
 */
enum class SchedPolicy : std::uint8_t
{
    ROUND_ROBIN,    //!< preemptive round robin over all processes
    GANG,           //!< only the current gang's processes run
};

/**
 * Kernel-level send admission control (overload protection). With
 * admission on, sends toward an overloaded or unhealthy peer fail
 * fast with err::WOULDBLOCK instead of queueing without bound: the
 * caller sheds load at the source, which is what keeps an incast from
 * collapsing into unbounded kernel queues. Sends toward a peer the
 * failure detector calls SUSPECT (or worse) are always refused rather
 * than racing the death timeout.
 */
struct AdmissionParams
{
    bool enabled = false;
    /** Refuse sends once the reliability window toward the peer has
     *  been continuously full this long; 0 = ignore window fullness. */
    Tick windowFullAfter = 0;
};

/** The per-node kernel. */
class Kernel : public SimObject, public TrapHandler
{
  public:
    struct Costs
    {
        // Kernel code paths, in instructions.
        static constexpr std::uint64_t contextSwitch = 80;
        static constexpr std::uint64_t syscallDispatch = 20;
        /** Per page: source-side checks, NIPT/PT writes, and the
         *  receiver-side work. */
        static constexpr std::uint64_t mapValidatePerPage = 90;
        static constexpr std::uint64_t mapInstallPerPage = 40;
        static constexpr std::uint64_t mapRemotePerPage = 110;
        static constexpr std::uint64_t channelWordWrite = 3;
        static constexpr std::uint64_t arrivalInterrupt = 30;
        static constexpr std::uint64_t rpcDispatch = 40;
        static constexpr std::uint64_t faultHandler = 80;
        static constexpr std::uint64_t pageSwap = 400; //!< evict or page-in
        /** The NX/2 baseline, from iPSC/2 NX/2 numbers. */
        static constexpr std::uint64_t nxCsendFastPath = 222;
        static constexpr std::uint64_t nxCrecvFastPath = 261;
        static constexpr std::uint64_t nxInterrupt = 90;
        static constexpr std::uint64_t nxCopyPerWord = 1;

        /** Scheduling time slice (benches and tests vary it). */
        Tick quantum = 1 * ONE_MS;
    };

    Kernel(EventQueue &eq, std::string name, NodeId node,
           unsigned num_nodes, Cpu &cpu, MainMemory &mem, XpressBus &bus,
           ShrimpNi &ni, const Costs &costs);
    ~Kernel() override;

    NodeId nodeId() const { return _node; }
    unsigned numNodes() const { return _numNodes; }
    const Costs &costs() const { return _costs; }
    Cpu &cpu() { return _cpu; }
    MainMemory &mem() { return _mem; }
    XpressBus &bus() { return _bus; }
    ShrimpNi &ni() { return _ni; }
    FrameAllocator &frames() { return _frames; }
    MapManager &mapManager() { return *_mapManager; }

    /** Create the DSM service; boot calls it before wireLinks. */
    void enableDsm(const DsmConfig &cfg);

    /** The DSM service, or nullptr unless enableDsm ran. */
    Dsm *dsm() { return _dsm.get(); }

    void
    setConsistencyPolicy(ConsistencyPolicy policy)
    {
        _consistency = policy;
    }
    ConsistencyPolicy consistencyPolicy() const { return _consistency; }

    void setSchedPolicy(SchedPolicy policy) { _schedPolicy = policy; }

    /**
     * Gang scheduling: make @p gang the runnable gang. Preempts a
     * running process of another gang and dispatches a member of the
     * new one (a GangCoordinator calls this on every node at the same
     * tick).
     */
    void setCurrentGang(std::uint32_t gang);

    // ---- processes ----

    /** Create a process (READY once a program is loaded). */
    Process *createProcess(const std::string &name);

    Process *findProcess(Pid pid);

    /**
     * Load @p program into @p proc with a fresh stack and enqueue it
     * for scheduling.
     */
    void loadAndReady(Process &proc,
                      std::shared_ptr<const Program> program,
                      std::size_t stack_pages = 4);

    /** Begin scheduling (call once after processes are ready). */
    void start();

    bool allProcessesExited() const;

    // ---- kernel links ----

    /**
     * Allocate and pin one DRAM frame for kernel-owned state (links,
     * DSM frames). Boot pins several frames per peer, so a large mesh
     * can exhaust a small DRAM: the panic then names this node, @p what
     * it was allocating and the node's frame count, and points at
     * SystemConfig::memBytesPerNode.
     */
    PageNum allocPinnedFrame(const char *what);

    /**
     * Open a link toward @p peer: pin its in and out frames and open the
     * in frame to the peer's stores. wireLinks maps the out frame in
     * @p mode onto the peer's link of the same opening order. With
     * @p on_arrival, every arrival on the in frame interrupts into it.
     * @p what names the link's kind in boot panics.
     */
    KernelLink openLink(NodeId peer, UpdateMode mode, const char *what,
                        LinkHandler *on_arrival = nullptr);

    /**
     * Boot: wire this kernel's links toward @p peer and the peer's
     * toward us, each onto its counterpart of the same opening order,
     * then forget both opening orders. Panics naming both nodes when
     * the two sides opened different links.
     */
    void wireLinks(Kernel &peer);

    /** Write one word into @p link's out frame (a store to the peer). */
    void writeLinkWord(const KernelLink &link, Addr offset,
                       std::uint32_t value);

    /** Functional read of one word of @p link's in frame. */
    std::uint32_t readLinkWord(const KernelLink &link, Addr offset) const;

    // ---- liveness and node-failure recovery ----

    /**
     * Turn on the heartbeat-based failure detector: periodic
     * keepalives to every peer, silence-driven SUSPECT/DEAD
     * transitions, and full mapping teardown/recovery through
     * peerDied/peerRecovered. Requires ni.reliability.enabled:
     * peer death fails the reliable channel, and epoch changes restart
     * its streams.
     */
    void enableHealth(const HealthParams &params);

    /** The failure detector, or nullptr unless enableHealth ran. */
    HealthMonitor *health() { return _health.get(); }

    /** This node's current life number (1 when health is off). */
    std::uint32_t selfIncarnation() const;

    /** Last observed incarnation of @p peer (0 = unknown/health off). */
    std::uint32_t peerIncarnation(NodeId peer) const;

    /** Our own incarnation was bumped to @p inc: fence this node's
     *  previous-life streams and the DSM grants it held. */
    void selfEpochBumped(std::uint32_t inc);

    /**
     * Peer @p peer started a new life (incarnation @p inc): everything
     * bound to its previous life is stale. In-flight RPCs toward it
     * fail with err::STALE_EPOCH, the reliability channel restarts,
     * and the DSM re-homes pages its old life owned.
     */
    void peerEpochChanged(NodeId peer, std::uint32_t inc);

    /**
     * Peer @p peer is dead (heartbeat timeout or retransmit-cap
     * evidence): error every NIPT mapping half toward it, abort
     * in-flight deliberate DMA targeting it, drop its incoming
     * mappings, and fail in-flight kernel RPCs with err::HOSTDOWN.
     * Unrelated traffic keeps flowing. Idempotent.
     */
    void peerDied(NodeId peer);

    /**
     * A DEAD peer spoke again: clear its failed status, reset the
     * reliability channel and RPC sequence state, heal every kernel
     * link toward it, and drop errored user mappings so the
     * application can re-map explicitly.
     */
    void peerRecovered(NodeId peer);

    /**
     * Power-fail this node: the CPU stops (the running process is
     * parked back on the ready queue), the failure detector pauses,
     * and pending quantum events die. The NI is crashed separately by
     * ShrimpSystem::crashNode, which calls both.
     */
    void crash();

    /** Undo crash(): reset per-peer protocol state (in-flight RPCs
     *  fail with err::HOSTDOWN), resume heartbeating and scheduling. */
    void restart();

    bool crashed() const { return _crashed; }

    // ---- host-level (zero-cost) mapping, for tests and hardware
    //      benches that must not include protocol costs ----

    /**
     * Establish outgoing mappings directly in both NIPTs, page
     * granular, without the kernel protocol and without simulated
     * cost. Both kernels' bookkeeping is still updated so unmap and
     * consistency work.
     *
     * @return err::OK or an errno.
     */
    std::uint64_t mapDirect(Process &src_proc, Addr src_vaddr,
                            std::size_t npages, Kernel &dst_kernel,
                            Process &dst_proc, Addr dst_vaddr,
                            UpdateMode mode,
                            bool arrival_interrupt = false);

    /**
     * Byte-granular variant supporting non-page-aligned mappings via
     * the NIPT page-split mechanism (Section 3.2). @p nbytes of
     * source starting at src_vaddr map to dst_vaddr; offsets within a
     * page may differ between source and destination.
     */
    std::uint64_t mapDirectRange(Process &src_proc, Addr src_vaddr,
                                 Addr nbytes, Kernel &dst_kernel,
                                 Process &dst_proc, Addr dst_vaddr,
                                 UpdateMode mode,
                                 bool arrival_interrupt = false);

    /**
     * Map the command pages controlling @p proc's pages at
     * [vaddr, vaddr + npages*PAGE_SIZE) into the process's address
     * space (Section 4.2: the kernel grants a process access to the
     * command pages of physical pages it owns).
     *
     * @return the base virtual address of the command window.
     */
    Addr mapCommandPages(Process &proc, Addr vaddr, std::size_t npages);

    // ---- paging (host/test driven; async under INVALIDATE) ----

    /**
     * Evict the page backing (@p proc, @p vaddr): saves contents to
     * swap, invalidates remote NIPT entries per the consistency
     * policy, releases the frame. @p done fires with success=false if
     * the policy forbids eviction (PIN + pinned).
     */
    void evictUserPage(Process &proc, Addr vaddr,
                       std::function<void(bool)> done);

    /** Page a previously evicted page back in (allocates a frame). */
    std::uint64_t pageIn(Process &proc, PageNum vpage);

    /**
     * Reap a process: tear down all of its mappings. Outgoing NIPT
     * entries are cleared immediately; frames with incoming mappings
     * are shot down (remote kernels invalidate their senders' NIPT
     * entries) and released. Remote remap attempts targeting a reaped
     * process are refused. Exited-but-unreaped processes keep their
     * memory and mappings, so late-arriving data still lands.
     */
    void reapProcess(Process &proc);

    /** True if (proc, vpage) currently lives in swap. */
    bool inSwap(Pid pid, PageNum vpage) const;

    // ---- TrapHandler ----
    std::optional<Tick> syscall(ExecContext &ctx, std::uint64_t num,
                                Tick now) override;
    std::optional<Tick> fault(ExecContext &ctx, FaultKind kind,
                              Addr vaddr, bool write, Tick now) override;
    void halted(ExecContext &ctx, Tick now) override;

    // ---- services used by MapManager / NxService ----

    /** Charge kernel instructions; returns the busy duration. */
    Tick charge(ExecContext *ctx, std::uint64_t instructions);

    /** Block the process owning @p ctx (must be the running one). */
    void blockCurrent(ExecContext &ctx);

    /** Make @p proc runnable; dispatches if the CPU is idle. */
    void makeReady(Process &proc);

    /** Process that owns @p ctx. */
    Process &processOf(ExecContext &ctx);

    /** Arrival count for a user frame (WAIT_ARRIVAL bookkeeping). */
    std::uint64_t arrivalCount(PageNum frame) const;

    /** Has the reliability layer declared @p peer unreachable? */
    bool
    peerFailed(NodeId peer) const
    {
        return _failedPeers.count(peer) != 0;
    }

    // ---- send admission control ----

    void setAdmission(const AdmissionParams &params)
    {
        _admission = params;
    }
    const AdmissionParams &admission() const { return _admission; }

    /**
     * May a new send toward @p peer be admitted right now? False when
     * admission control is on and the peer is SUSPECT/DEAD or its
     * reliability window has been full past windowFullAfter. Callers
     * should fail the operation with err::WOULDBLOCK (and charge
     * countSendRejected()) rather than queue it.
     */
    bool sendAdmissible(NodeId peer) const;

    /** Record one admission-control rejection. */
    void countSendRejected() { ++_sendsRejected; }

    stats::Group &statGroup() { return _stats; }

  private:
    friend class MapManager;
    friend class NxService;

    /** Pick and install the next READY process. */
    std::optional<Tick> scheduleNext(Tick now);

    /** Arrival interrupt bottom half (runs on the CPU). */
    Tick arrivalHandler(PageNum page, Tick now);

    /** Outgoing-FIFO threshold handling (Section 4 flow control). */
    void outFifoFull();
    void outFifoDrained();

    /** Preemption timer. */
    void armQuantum(Process &proc);
    void quantumExpired();

    /** sys::MAP, or sys::UNMAP when @p unmap: read the caller's
     *  MapArgs block and block it until the protocol completes. */
    std::optional<Tick> doMapSyscall(ExecContext &ctx, Tick now,
                                     bool unmap);
    std::optional<Tick> doWaitArrival(ExecContext &ctx, Tick now);

    /** Read a MapArgs block from user memory. */
    bool readUserWords(ExecContext &ctx, Addr vaddr, std::uint32_t *out,
                       unsigned nwords) const;

    NodeId _node;
    unsigned _numNodes;
    Cpu &_cpu;
    MainMemory &_mem;
    XpressBus &_bus;
    ShrimpNi &_ni;
    Costs _costs;
    FrameAllocator _frames;
    ConsistencyPolicy _consistency = ConsistencyPolicy::PIN;
    SchedPolicy _schedPolicy = SchedPolicy::ROUND_ROBIN;
    std::uint32_t _currentGang = 0;

    std::vector<std::unique_ptr<Process>> _processes;
    std::deque<Process *> _readyQueue;
    Process *_running = nullptr;
    Pid _nextPid = 1;

    /** The handler and peer of each interrupting link's in frame. */
    struct LinkRoute
    {
        LinkHandler *handler;
        NodeId peer;
    };
    std::unordered_map<PageNum, LinkRoute> _linkRoutes;

    /** A link wireLinks has not wired yet. */
    struct UnwiredLink
    {
        KernelLink link;
        UpdateMode mode;
        const char *what;
    };
    /** Boot only: unwired links by peer, in opening order. */
    std::map<NodeId, std::vector<UnwiredLink>> _unwired;

    // WAIT_ARRIVAL bookkeeping.
    std::unordered_map<PageNum, std::uint64_t> _arrivalCount;
    std::unordered_map<PageNum, std::vector<Process *>> _arrivalWaiters;

    // Swap storage: (pid, vpage) -> saved contents + attributes.
    struct SwapEntry
    {
        std::vector<std::uint8_t> data;
        Pte pte;    //!< attributes to restore (frame field unused)
    };
    std::map<std::pair<Pid, PageNum>, SwapEntry> _swap;

    bool _stalledOnOutFifo = false;
    Tick _stallStart = 0;
    EventFunctionWrapper _quantumEvent;
    Process *_quantumTarget = nullptr;

    std::unique_ptr<MapManager> _mapManager;
    std::unique_ptr<NxService> _nxService;
    std::unique_ptr<Dsm> _dsm;
    std::unique_ptr<HealthMonitor> _health;
    AdmissionParams _admission;
    bool _crashed = false;

    stats::Group _stats;
    stats::Counter _switches{_stats, "contextSwitches", "context switches"};
    stats::Counter _interruptCount{_stats, "interrupts",
                                   "arrival interrupts handled"};
    stats::Counter _fifoStalls{_stats, "fifoStalls",
                               "outgoing-FIFO threshold stalls"};
    stats::Counter _fifoStallTicks{_stats, "fifoStallTicks",
                                   "ticks stalled on outgoing FIFO"};
    stats::Counter _pageEvictions{_stats, "pageEvictions", "pages evicted"};
    stats::Counter _pageIns{_stats, "pageIns", "pages brought back from swap"};
    stats::Counter _crashes{_stats, "crashes", "node crash events"};
    stats::Counter _restarts{_stats, "restarts", "node restart events"};
    /** Refused with err::WOULDBLOCK rather than queued. */
    stats::Counter _sendsRejected{
        _stats, "sendsRejected", "sends refused by admission control"};

    /** Peers declared unreachable by the NI reliability layer. */
    std::set<NodeId> _failedPeers;
};

} // namespace shrimp

#endif // SHRIMP_OS_KERNEL_HH
