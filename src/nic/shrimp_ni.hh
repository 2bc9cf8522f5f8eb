/**
 * @file
 * ShrimpNi: the SHRIMP virtual memory-mapped network interface
 * (Sections 3 and 4 of the paper). It
 *
 *  - snoops CPU write-through stores off the Xpress bus, looks them up
 *    in the NIPT, and packetizes mapped ones (automatic update, in
 *    single-write or blocked-write/merging flavours);
 *  - hosts the single deliberate-update DMA engine, claimed from user
 *    level through VM-mapped command pages with a locked CMPXCHG;
 *  - decodes the command address space (one command page per physical
 *    page, at cmdBase + the page's physical offset);
 *  - injects packets into the mesh through the Outgoing FIFO and
 *    accepts them through the Incoming FIFO, with the programmable
 *    thresholds that implement the paper's flow control;
 *  - drains arrived packets to main memory through the EISA bus on the
 *    prototype datapath, or directly over the Xpress bus on the
 *    next-generation datapath, verifying mesh coordinates, CRC, and
 *    the NIPT mapped-in bit.
 *
 * Command page layout (our encoding of Section 4.2/4.3): a write of n
 * to offset o < PAGE_SIZE-16 starts a deliberate transfer of n words
 * from the corresponding physical page's offset o; a read from such an
 * offset returns the DMA engine status (0 = free). The last 16 bytes
 * are control: a write to ctrlModeOffset switches the page's outgoing
 * update mode, a write to ctrlIntrOffset sets/clears the
 * interrupt-on-arrival bit. Deliberate transfers may therefore not
 * start in a page's last 16 bytes; the user-level send macro splits
 * such transfers (the paper's macro already splits at page
 * boundaries).
 */

#ifndef SHRIMP_NIC_SHRIMP_NI_HH
#define SHRIMP_NIC_SHRIMP_NI_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mem/bus_interfaces.hh"
#include "mem/eisa_bus.hh"
#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "net/backplane.hh"
#include "nic/deliberate_dma.hh"
#include "nic/nipt.hh"
#include "nic/packet_fifo.hh"
#include "nic/retransmit_buffer.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

/** The SHRIMP network interface for one node. */
class ShrimpNi : public SimObject,
                 public BusSnooper,
                 public BusTarget,
                 public NetworkSink
{
  public:
    /** Control offsets in each command page (see file comment). */
    static constexpr Addr ctrlRegionOffset = PAGE_SIZE - 16;
    static constexpr Addr ctrlModeOffset = PAGE_SIZE - 16;
    static constexpr Addr ctrlIntrOffset = PAGE_SIZE - 8;

    /**
     * Command-page status read result for a page whose outgoing
     * mapping was marked errored by the reliability layer (retry cap
     * exhausted). Distinct from every dma_status encoding.
     */
    static constexpr std::uint64_t statusMapError = ~std::uint64_t{0};

    /** Values written to ctrlModeOffset. */
    enum class ModeCommand : std::uint64_t
    {
        AUTO_SINGLE = 0,
        AUTO_BLOCK = 1,
        DELIBERATE = 2,
    };

    struct Params
    {
        /** Base physical address of the command space. */
        Addr cmdBase = 0x4000'0000;
        /** Snoop capture -> packet in Outgoing FIFO. */
        Tick packetizeLatency = 100 * ONE_NS;
        /** Blocked-write merge window ("programmable time limit"). */
        Tick mergeTimeout = 1 * ONE_US;
        /** Max payload per packet (merged or DMA chunk). */
        Addr maxPayloadBytes = 512;
        /** Per-packet NIC chip injection overhead. */
        Tick injectOverhead = 50 * ONE_NS;
        /** Coalescing limit for one incoming drain burst. */
        Addr maxDrainBurstBytes = 4096;
        /** Prototype (EISA) or next-generation (Xpress) receive path. */
        bool eisaIncoming = true;

        PacketFifo::Params outFifo{64 * 1024, 48 * 1024, 16 * 1024};
        PacketFifo::Params inFifo{64 * 1024, 56 * 1024, 32 * 1024};

        DeliberateDma::Params dma{};

        /** End-to-end reliable delivery (off = paper wire format). */
        ReliabilityParams reliability{};

        /**
         * Forward-progress watchdog period; 0 = off. While queued
         * work exists (outgoing FIFO, control queue, or incoming
         * FIFO) and no packet is injected or committed for a full
         * period, the NI flags a stall (progressStalled(), counted in
         * watchdogStalls) and kicks its engines as recovery. The
         * chaos soak treats a stall that survives the settle phase as
         * an invariant violation.
         */
        Tick watchdogPeriod = 0;
    };

    ShrimpNi(EventQueue &eq, std::string name, NodeId node,
             const Params &params, XpressBus &bus, EisaBus &eisa,
             MainMemory &mem, MeshBackplane &backplane);

    NodeId nodeId() const { return _node; }
    Nipt &nipt() { return _nipt; }
    const Nipt &nipt() const { return _nipt; }
    DeliberateDma &dma() { return _dma; }
    PacketFifo &outgoingFifo() { return _outFifo; }
    PacketFifo &incomingFifo() { return _inFifo; }
    const Params &params() const { return _params; }

    // ---- command space geometry ----
    Addr cmdBase() const { return _params.cmdBase; }
    Addr cmdSpaceSize() const { return _mem.size(); }

    /** Command-space address controlling the given DRAM address. */
    Addr
    cmdAddrFor(Addr dram_paddr) const
    {
        return _params.cmdBase + dram_paddr;
    }

    /** Command page number controlling DRAM page @p page. */
    PageNum
    cmdPageFor(PageNum page) const
    {
        return pageOf(_params.cmdBase) + page;
    }

    // ---- kernel / instrumentation hooks ----

    /** Outgoing FIFO crossed above its high threshold: the kernel
     *  stalls the CPU until onOutFifoDrained fires (Section 4). */
    std::function<void()> onOutFifoAboveThreshold;
    std::function<void()> onOutFifoDrained;

    /** Data arrived for a page whose NIPT entry requests interrupts. */
    std::function<void(PageNum page, Addr dst_paddr)> onArrival;

    /** A packet was dropped (bad CRC, wrong coords, not mapped in). */
    std::function<void(const NetPacket &pkt)> onDropped;

    /** A packet's payload reached destination main memory. */
    std::function<void(const NetPacket &pkt, Tick when)> onDelivered;

    /**
     * The reliability layer exhausted its retry budget toward a
     * destination: @p halves outgoing mapping halves were marked
     * errored. The kernel records the failure for processes to see.
     */
    std::function<void(NodeId dst, unsigned halves)> onMappingError;

    /** A HEARTBEAT keepalive arrived carrying the sender's packed
     *  (incarnation, view) stamp (fed to the health service). */
    std::function<void(NodeId src, std::uint64_t stamp)> onHeartbeat;

    /** A reliable packet was fenced: it came from an older life of
     *  its sender (the kernel rolls this into staleEpochRejects). */
    std::function<void(NodeId src)> onStaleEpochDrop;

    // ---- liveness / failure support ----

    /** Emit one HEARTBEAT toward @p dst via the control queue (jumps
     *  the FIFO and the retransmit window; works with reliability
     *  off), carrying @p stamp in the rseq field. */
    void sendHeartbeat(NodeId dst, std::uint64_t stamp);

    /**
     * Enter channel epoch @p epoch (the kernel's incarnation number):
     * outgoing packets are stamped with it, and every outgoing
     * reliability stream restarts from sequence 0 -- receivers see the
     * newer epoch and resynchronize, while anything still in flight
     * from the previous epoch is fenced on arrival.
     */
    void startNewEpoch(std::uint32_t epoch);

    /**
     * Power-fail the chip (or bring it back). Crashed: all queued
     * state is discarded and arriving packets are consumed-and-dropped
     * -- the sink stays ready so the mesh drains instead of wedging.
     * Un-crashing restores a freshly-booted NI (all reliability
     * channels reset to sequence 0).
     */
    void setCrashed(bool crashed);
    bool crashed() const { return _crashed; }

    /**
     * External (health-service) evidence that @p dst is down: fail its
     * channel now instead of waiting out the retry cap. Marks every
     * outgoing mapping half toward @p dst errored and fires
     * onMappingError, exactly like an exhausted retry budget.
     */
    void declarePeerDead(NodeId dst);

    /** Reset both reliability directions with @p peer to sequence 0
     *  (used when a crashed peer rejoins). */
    void resetChannel(NodeId peer);

    /** Clear the error flag on surviving outgoing halves toward
     *  @p dst (kernel-channel/NX wirings healed on peer recovery).
     *  Returns the number of halves healed. */
    unsigned healMappingsToward(NodeId dst);

    // ---- BusSnooper: the outgoing automatic-update datapath ----
    void snoopWrite(Addr paddr, const void *buf, Addr len,
                    BusMaster master) override;

    // ---- BusTarget: the command address space ----
    std::uint64_t busRead(Addr paddr, unsigned size) override;
    void busWrite(Addr paddr, const void *buf, Addr len) override;
    bool effectAtGrant() const override { return true; }

    // ---- NetworkSink: ejection from the mesh ----
    bool sinkReady() const override { return _accepting; }
    void sinkDeliver(NetPacket &&pkt) override;

    /** Force out any pending blocked-write merge buffer. */
    void flushMergeBuffer();

    // ---- statistics accessors used by tests and benches ----
    std::uint64_t packetsSent() const { return _pktsSent.value(); }
    std::uint64_t packetsDelivered() const
    {
        return _pktsDelivered.value();
    }
    std::uint64_t payloadBytesDelivered() const
    {
        return _bytesDelivered.value();
    }
    std::uint64_t dropsCrc() const { return _dropsCrc.value(); }
    std::uint64_t dropsUnmapped() const { return _dropsUnmapped.value(); }
    std::uint64_t mergedWrites() const { return _mergedWrites.value(); }
    std::uint64_t ignoredStarts() const
    {
        return _ignoredStarts.value();
    }

    // ---- reliability layer accessors ----
    bool reliabilityEnabled() const { return _params.reliability.enabled; }
    RetransmitBuffer &retransmitBuffer() { return *_retx; }
    std::uint64_t acksSent() const { return _relAcksSent.value(); }
    std::uint64_t acksReceived() const { return _relAcksRcvd.value(); }
    std::uint64_t nacksSent() const { return _relNacksSent.value(); }
    std::uint64_t nacksReceived() const { return _relNacksRcvd.value(); }
    std::uint64_t duplicatesSuppressed() const
    {
        return _relDupsSuppressed.value();
    }
    std::uint64_t reorderFixes() const { return _relReorderFixes.value(); }
    std::uint64_t mappingsErrored() const
    {
        return _relMappingsErrored.value();
    }

    // ---- congestion / overload accessors ----

    /** Packets discarded because the outgoing FIFO was full (graceful
     *  send-path degradation instead of an overrun assertion). */
    std::uint64_t sendOverflowDrops() const
    {
        return _sendOverflowDrops.value();
    }
    /** Congestion marks latched off arriving DATA packets. */
    std::uint64_t ecnMarksSeen() const { return _ecnMarksSeen.value(); }
    /** ACKs sent carrying a congestion echo. */
    std::uint64_t ecnEchoesSent() const
    {
        return _ecnEchoesSent.value();
    }
    /** No-forward-progress windows flagged by the watchdog. */
    std::uint64_t watchdogStalls() const
    {
        return _watchdogStalls.value();
    }
    /** Is the NI currently inside a flagged stall? */
    bool progressStalled() const { return _stalled; }

    /** Control-queue depth (ACKs/NACKs/retransmissions pending). */
    std::size_t controlQueueDepth() const { return _ctrl.size(); }

    /** Receiver-side next expected reliable sequence from @p src. */
    std::uint64_t
    rxExpectedFrom(NodeId src) const
    {
        return _rx.at(src).expected;
    }

    stats::Group &statGroup() { return _stats; }

    /** Inject one bit error into the next outgoing packet (tests). */
    void corruptNextPacket() { _corruptNext = true; }

  private:
    struct MergeBuffer
    {
        bool valid = false;
        NodeId dstNode = INVALID_NODE;
        Addr dstStart = 0;
        Addr srcNext = 0;       //!< next contiguous source address
        std::vector<std::uint8_t> data;
        Tick lastWrite = 0;
    };

    bool isDram(Addr paddr) const { return paddr < _mem.size(); }

    /** Build, seal and queue a packet. */
    void emitPacket(NodeId dst, Addr dst_addr,
                    std::vector<std::uint8_t> &&payload, Tick ready);

    void handleAutoSingle(const OutLookup &lookup, const void *buf,
                          Addr len);
    void handleAutoBlock(const OutLookup &lookup, Addr paddr,
                         const void *buf, Addr len);

    /** Injection engine: Outgoing FIFO head -> mesh router. */
    void tryInject();

    /** Drain engine: Incoming FIFO -> main memory (EISA or Xpress). */
    void drainIncoming();

    /** Deliver one drained packet functionally + notify. */
    void commitArrival(NetPacket &&pkt);

    // ---- reliability layer (active only when params.reliability
    //      .enabled; see DESIGN.md "Reliability layer") ----

    /** Sequence-check an arriving reliable DATA packet. */
    void receiveReliableData(NetPacket &&pkt);

    /** Accept an in-order packet and drain the reorder buffer. */
    void acceptInOrder(NetPacket &&pkt);

    /** Build an ACK/NACK control packet toward @p dst. */
    NetPacket makeControl(NetPacket::Kind kind, NodeId dst,
                          std::uint64_t rseq);

    /** Enqueue a control/retransmission packet for injection. */
    void queueControl(NetPacket &&pkt);

    /** Coalesced cumulative-ACK scheduling for @p src. */
    void scheduleAck(NodeId src);
    void sendAckNow(NodeId src);

    /** Rate-limited NACK for the current gap toward @p src. */
    void sendNack(NodeId src);

    /** Delayed-ACK timer: flush every pending cumulative ACK. */
    void flushPendingAcks();

    /** Retry-cap exhaustion: mark every mapping toward @p dst. */
    void handleChannelFailure(NodeId dst);

    /** Mark every outgoing half toward @p dst errored; returns count. */
    unsigned errorMappingsToward(NodeId dst);

    NodeId _node;
    Params _params;
    XpressBus &_bus;
    EisaBus &_eisa;
    MainMemory &_mem;
    MeshBackplane &_backplane;
    Router &_router;

    Nipt _nipt;
    PacketFifo _outFifo;
    PacketFifo _inFifo;
    DeliberateDma _dma;
    MergeBuffer _merge;

    /** Receiver-side reliability state, one per source node. */
    struct RxState
    {
        std::uint64_t expected = 0;     //!< next in-order sequence
        unsigned unacked = 0;           //!< accepted since last ACK
        bool ackPending = false;
        /** Out-of-order packets held until the gap closes. */
        std::map<std::uint64_t, NetPacket> ooo;
        Tick lastNackAt = 0;
        std::uint64_t lastNackSeq = ~std::uint64_t{0};
        /** Congestion observed (marked packet, or our FIFO nearly
         *  full); echoed and cleared by the next outgoing ACK. */
        bool ecnPending = false;
        /** Channel epoch of the sender life this state belongs to
         *  (0 = epoch fencing unused). Survives channel resets. */
        std::uint32_t epoch = 0;
    };

    bool _accepting = true;     //!< incoming flow-control state
    bool _draining = false;     //!< a drain burst is in flight
    bool _outAboveThreshold = false;
    bool _corruptNext = false;
    bool _dmaWaitingForFifo = false;
    bool _crashed = false;      //!< node power-failed (crashNode)
    /** Bumped on crash: orphans in-flight drain-burst completions. */
    std::uint64_t _epoch = 0;
    /** Channel epoch stamped into outgoing packets (startNewEpoch);
     *  0 until the kernel's health service sets it. */
    std::uint32_t _chanEpoch = 0;
    Tick _nextInjectOk = 0;
    std::uint64_t _nextSeq = 0;

    // ---- progress watchdog (params.watchdogPeriod > 0) ----
    Tick _lastProgressAt = 0;
    bool _stalled = false;

    /** Record forward progress (injection or commit) for the watchdog. */
    void noteProgress();

    /** Periodic watchdog check: queued work + no progress = stall. */
    void watchdogTick();

    /** ACK/NACK + retransmission queue; injected ahead of the FIFO. */
    std::deque<NetPacket> _ctrl;
    std::vector<RxState> _rx;
    std::unique_ptr<RetransmitBuffer> _retx;

    EventFunctionWrapper _injectEvent;
    EventFunctionWrapper _drainEvent;
    EventFunctionWrapper _mergeTimerEvent;
    EventFunctionWrapper _ackEvent;
    EventFunctionWrapper _watchdogEvent;

    stats::Group _stats;
    stats::Counter _pktsSent{"pktsSent", "packets injected"};
    stats::Counter _pktsDelivered{"pktsDelivered",
                                  "packets delivered to memory"};
    stats::Counter _bytesSent{"bytesSent", "payload bytes injected"};
    stats::Counter _bytesDelivered{"bytesDelivered",
                                   "payload bytes delivered"};
    stats::Counter _dropsCrc{"dropsCrc",
                             "packets dropped: bad CRC or coords"};
    stats::Counter _dropsUnmapped{"dropsUnmapped",
                                  "packets dropped: page not mapped in"};
    stats::Counter _mergedWrites{"mergedWrites",
                                 "writes merged into a pending packet"};
    stats::Counter _mergeFlushTimeout{"mergeFlushTimeout",
                                      "merge buffers flushed by timer"};
    stats::Counter _ignoredStarts{"ignoredStarts",
                                  "command writes ignored (engine busy)"};
    stats::Counter _arrivalInterrupts{"arrivalInterrupts",
                                      "arrival interrupts raised"};
    stats::Counter _relAcksSent{"relAcksSent",
                                "cumulative ACK packets sent"};
    stats::Counter _relAcksRcvd{"relAcksRcvd", "ACK packets received"};
    stats::Counter _relNacksSent{"relNacksSent", "NACK packets sent"};
    stats::Counter _relNacksRcvd{"relNacksRcvd", "NACK packets received"};
    stats::Counter _relDupsSuppressed{
        "relDupsSuppressed", "duplicate data packets suppressed"};
    stats::Counter _relReorderFixes{
        "relReorderFixes", "out-of-order packets restored to order"};
    stats::Counter _relOooDrops{
        "relOooDrops", "out-of-order packets dropped (buffer full)"};
    stats::Counter _relMappingsErrored{
        "relMappingsErrored", "mapping halves marked errored"};
    stats::Counter _relDroppedFailed{
        "relDroppedFailed", "packets dropped toward failed destinations"};
    stats::Counter _crashDrops{
        "crashDrops", "packets discarded while the node was crashed"};
    stats::Counter _heartbeatsForwarded{
        "heartbeatsForwarded", "HEARTBEAT packets accepted off the wire"};
    stats::Counter _sendOverflowDrops{
        "sendOverflowDrops",
        "packets dropped at the sender: outgoing FIFO full"};
    stats::Counter _ecnMarksSeen{
        "ecnMarksSeen", "congestion marks latched off arriving data"};
    stats::Counter _ecnEchoesSent{
        "ecnEchoesSent", "ACKs sent carrying a congestion echo"};
    stats::Counter _watchdogStalls{
        "watchdogStalls", "no-forward-progress windows flagged"};
    stats::Counter _staleEpochDrops{
        "staleEpochDrops",
        "reliable packets fenced: stale sender channel epoch"};
    stats::Distribution _deliveryLatency{
        "deliveryLatency", "injection-to-memory latency (ticks)"};
    stats::Histogram _deliveryLatencyHist{
        "deliveryLatencyHist",
        "injection-to-memory latency distribution (ticks, log2 buckets)"};
};

} // namespace shrimp

#endif // SHRIMP_NIC_SHRIMP_NI_HH
