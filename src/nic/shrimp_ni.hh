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

    /** Base physical address of the command space. */
    static constexpr Addr cmdBase = 0x4000'0000;
    /** Snoop capture -> packet in Outgoing FIFO. */
    static constexpr Tick packetizeLatency = 100 * ONE_NS;
    /** Max payload per packet (merged or DMA chunk). */
    static constexpr Addr maxPayloadBytes = 512;
    static_assert(maxPayloadBytes >= 8 && maxPayloadBytes <= PAGE_SIZE,
                  "bad max payload size");
    /** Per-packet NIC chip injection overhead. */
    static constexpr Tick injectOverhead = 50 * ONE_NS;
    /** Coalescing limit for one incoming drain burst. */
    static constexpr Addr maxDrainBurstBytes = 4096;

    // ---- reliability receiver (params.reliability.enabled) ----
    /** Cumulative-ACK coalescing count. */
    static constexpr unsigned ackEvery = 4;
    /** Delayed-ACK window. */
    static constexpr Tick ackDelay = 5 * ONE_US;
    /** Out-of-order hold per source. */
    static constexpr unsigned reorderBufferPackets = 16;

    struct Params
    {
        /** Blocked-write merge window ("programmable time limit"). */
        Tick mergeTimeout = 1 * ONE_US;
        /**
         * Use the next-generation datapath: incoming packets bypass
         * the EISA bus and drive the Xpress bus directly (Section 5.1
         * predicts < 1 us latency and ~70 MB/s with this path).
         */
        bool nextGenDatapath = false;

        PacketFifo::Params outFifo{64 * 1024, 48 * 1024, 16 * 1024};
        PacketFifo::Params inFifo{64 * 1024, 56 * 1024, 32 * 1024};

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

    // ---- command space geometry ----

    /** Command-space address controlling the given DRAM address. */
    static Addr cmdAddrFor(Addr dram_paddr) { return cmdBase + dram_paddr; }

    /** Command page number controlling DRAM page @p page. */
    static PageNum cmdPageFor(PageNum page) { return pageOf(cmdBase) + page; }

    // ---- kernel / instrumentation hooks ----

    /** Outgoing FIFO crossed above its high threshold: the kernel
     *  stalls the CPU until onOutFifoDrained fires (Section 4). */
    std::function<void()> onOutFifoAboveThreshold;
    std::function<void()> onOutFifoDrained;

    /** Data arrived for a page whose NIPT entry requests interrupts. */
    std::function<void(PageNum page, Addr dst_paddr)> onArrival;

    /** A packet's payload reached destination main memory. */
    std::function<void(const NetPacket &pkt, Tick when)> onDelivered;

    /**
     * The reliability layer exhausted its retry budget toward @p dst
     * and marked every outgoing mapping half toward it errored
     * (counted in relMappingsErrored). The kernel records the failure
     * for processes to see.
     */
    std::function<void(NodeId dst)> onMappingError;

    /** A HEARTBEAT keepalive arrived carrying the sender's packed
     *  (incarnation, view) stamp (fed to the health service). */
    std::function<void(NodeId src, std::uint64_t stamp)> onHeartbeat;

    // ---- liveness / failure support ----

    /** Emit one HEARTBEAT toward @p dst via the control queue (jumps
     *  the FIFO and the retransmit window), carrying @p stamp in the
     *  rseq field. */
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
     * onMappingError, exactly like an exhausted retry budget. Needs
     * the reliability layer, as the health service does.
     */
    void declarePeerDead(NodeId dst);

    /** Restart the outgoing reliability stream toward @p peer at
     *  sequence 0: the one TX restart, used by startNewEpoch,
     *  resetAllChannels and the kernel when a peer starts a new life. */
    void resetChannel(NodeId peer);

    /** Set (@p error true) or clear the error flag on every valid
     *  outgoing mapping half toward @p dst; returns the number of
     *  halves flipped. Peer recovery clears it on the surviving
     *  kernel-channel and NX wirings. */
    unsigned markMappingsToward(NodeId dst, bool error);

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

    bool reliabilityEnabled() const { return _params.reliability.enabled; }
    RetransmitBuffer &retransmitBuffer() { return *_retx; }

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

    /** Ask the injection engine to run now, unless it is pending. */
    void kickInject();

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

    /** Restart every reliability stream, both directions, at sequence
     *  0 (power-fail and reboot). */
    void resetAllChannels();

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
    std::size_t _drainPackets = 0;  //!< packets in that burst
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

    ElidableEvent _injectEvent;
    EventFunctionWrapper _drainEvent;
    EventFunctionWrapper _mergeTimerEvent;
    EventFunctionWrapper _ackEvent;
    EventFunctionWrapper _watchdogEvent;

    stats::Group _stats;
    stats::Counter _pktsSent{_stats, "pktsSent", "packets injected"};
    stats::Counter _pktsDelivered{_stats, "pktsDelivered",
                                  "packets delivered to memory"};
    stats::Counter _bytesSent{_stats, "bytesSent", "payload bytes injected"};
    stats::Counter _bytesDelivered{_stats, "bytesDelivered",
                                   "payload bytes delivered"};
    stats::Counter _dropsCrc{_stats, "dropsCrc",
                             "packets dropped: bad CRC or coords"};
    stats::Counter _dropsUnmapped{_stats, "dropsUnmapped",
                                  "packets dropped: page not mapped in"};
    stats::Counter _mergedWrites{_stats, "mergedWrites",
                                 "writes merged into a pending packet"};
    stats::Counter _mergeFlushTimeout{_stats, "mergeFlushTimeout",
                                      "merge buffers flushed by timer"};
    stats::Counter _ignoredStarts{_stats, "ignoredStarts",
                                  "command writes ignored (engine busy)"};
    stats::Counter _arrivalInterrupts{_stats, "arrivalInterrupts",
                                      "arrival interrupts raised"};
    stats::Counter _relAcksSent{_stats, "relAcksSent",
                                "cumulative ACK packets sent"};
    stats::Counter _relAcksRcvd{_stats, "relAcksRcvd", "ACK packets received"};
    stats::Counter _relNacksSent{_stats, "relNacksSent", "NACK packets sent"};
    stats::Counter _relNacksRcvd{_stats, "relNacksRcvd",
                                 "NACK packets received"};
    stats::Counter _relDupsSuppressed{
        _stats, "relDupsSuppressed", "duplicate data packets suppressed"};
    stats::Counter _relReorderFixes{
        _stats, "relReorderFixes", "out-of-order packets restored to order"};
    stats::Counter _relOooDrops{
        _stats, "relOooDrops", "out-of-order packets dropped (buffer full)"};
    stats::Counter _relMappingsErrored{
        _stats, "relMappingsErrored", "mapping halves marked errored"};
    stats::Counter _relDroppedFailed{
        _stats, "relDroppedFailed",
        "packets dropped toward failed destinations"};
    stats::Counter _crashDrops{
        _stats, "crashDrops", "packets discarded while the node was crashed"};
    stats::Counter _heartbeatsForwarded{
        _stats, "heartbeatsForwarded",
        "HEARTBEAT packets accepted off the wire"};
    /** A full outgoing FIFO drops the packet (graceful send-path
     *  degradation instead of an overrun assertion). */
    stats::Counter _sendOverflowDrops{
        _stats, "sendOverflowDrops",
        "packets dropped at the sender: outgoing FIFO full"};
    stats::Counter _ecnMarksSeen{
        _stats, "ecnMarksSeen", "congestion marks latched off arriving data"};
    stats::Counter _ecnEchoesSent{
        _stats, "ecnEchoesSent", "ACKs sent carrying a congestion echo"};
    stats::Counter _watchdogStalls{
        _stats, "watchdogStalls", "no-forward-progress windows flagged"};
    stats::Counter _staleEpochDrops{
        _stats, "staleEpochDrops",
        "reliable packets fenced: stale sender channel epoch"};
    stats::Histogram _deliveryLatency{
        _stats, "deliveryLatency",
        "injection-to-memory latency distribution (ticks, log2 buckets)"};
};

} // namespace shrimp

#endif // SHRIMP_NIC_SHRIMP_NI_HH
