/**
 * @file
 * Router: one node of the Paragon-style routing backplane -- an
 * iMRC-like 5-port mesh router with deterministic dimension-order
 * (X then Y) routing, which is oblivious and deadlock-free and, with
 * FIFO links, preserves per-sender/receiver packet order. These are
 * exactly the three properties Section 3 of the paper relies on.
 *
 * Timing is virtual cut-through at packet granularity: a hop charges a
 * fixed routing latency for the header plus wire serialization for the
 * body, and serialization pipelines across hops. Backpressure is
 * credit-based on input buffer slots; a full incoming FIFO at a NIC
 * stalls ejection, filling router buffers backwards exactly as the
 * paper's flow-control description requires.
 */

#ifndef SHRIMP_NET_ROUTER_HH
#define SHRIMP_NET_ROUTER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/fault_model.hh"
#include "net/packet.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

/**
 * Where ejected packets go: implemented by the node's network
 * interface chip. A sink that reports not-ready exerts backpressure
 * into the mesh ("the NIC will cease to accept more packets").
 */
class NetworkSink
{
  public:
    virtual ~NetworkSink() = default;

    /** Can the sink take a packet right now? */
    virtual bool sinkReady() const = 0;

    /** Deliver a fully received packet at the current tick. */
    virtual void sinkDeliver(NetPacket &&pkt) = 0;
};

/** Mesh router. */
class Router : public SimObject
{
  public:
    enum Port : unsigned
    {
        LOCAL = 0,
        EAST,
        WEST,
        NORTH,
        SOUTH,
        NUM_PORTS,
    };

    struct Params
    {
        unsigned inputBufferPackets = 4;
        Tick routingLatency = 40 * ONE_NS;  //!< header decision per hop
        Tick linkLatency = 8 * ONE_NS;      //!< wire propagation
        /** 16-bit-flit Paragon-style links; comfortably more than
         *  twice the EISA bottleneck, as the paper requires. */
        std::uint64_t linkBytesPerSec = 80'000'000;

        /**
         * Fault-tolerant routing: detour around links that are
         * externally advertised dead (setLinkDead) or that the fault
         * model has held down for longer than routeAroundAfter. Off by
         * default: plain dimension-order, exactly the paper's fabric.
         */
        bool faultTolerant = false;
        /** Outage age before a flapping link is routed around; shorter
         *  flaps are left to the NI's retransmission layer. */
        Tick routeAroundAfter = 200 * ONE_US;
        /** Detours one packet may take before the router gives up and
         *  drops it (livelock guard under multiple failures). */
        unsigned misrouteBudget = 8;

        /**
         * ECN-style marking: a reliable DATA packet arriving at an
         * input queue already holding at least this many packets gets
         * its congestion bit set; the receiving NI echoes the mark on
         * its next ACK and the sender shrinks its AIMD window.
         * 0 = marking off (paper-exact fabric).
         */
        unsigned ecnThresholdPackets = 0;
    };

    Router(EventQueue &eq, std::string name, unsigned x, unsigned y,
           const Params &params);

    unsigned x() const { return _x; }
    unsigned y() const { return _y; }

    /** Wire our output port @p out to @p nbr's input port @p nbr_in. */
    void connect(Port out, Router *nbr, Port nbr_in);

    /** Attach the local node's ejection sink. */
    void setSink(NetworkSink *sink) { _sink = sink; }

    /**
     * Register a callback invoked whenever the LOCAL input port (the
     * injection queue) frees a slot; the NIC uses it to retry
     * injection after backpressure.
     */
    void
    setInjectWaiter(std::function<void()> fn)
    {
        _injectWaiter = std::move(fn);
    }

    /** Is there an injection buffer slot free? */
    bool injectReady() const { return hasCredit(LOCAL); }

    /**
     * Inject a packet from the local NIC. The caller must have checked
     * injectReady().
     */
    void inject(NetPacket &&pkt);

    /**
     * The local sink became ready again (incoming FIFO drained below
     * its threshold); retry ejection.
     */
    void sinkReadyAgain() { scheduleAdvance(curTick()); }

    /**
     * Attach a fault model to the output link behind @p out (non-LOCAL
     * ports only; the ejection channel into the NIC is fault-free).
     * Passing a Params with no active fault class detaches the model.
     */
    void setFaultModel(Port out, const FaultModel::Params &params);

    /** Fault model of output link @p out, or nullptr. */
    FaultModel *faultModel(Port out) { return _faults[out].get(); }

    /**
     * Externally advertise the output link behind @p out as dead (or
     * alive again) -- the health service / backplane uses this when a
     * peer or cable is known down. Only consulted in fault-tolerant
     * mode. Reviving a link kicks the pipeline so parked traffic
     * immediately retries the preferred route.
     */
    void setLinkDead(Port out, bool dead);

    /** Is @p out externally advertised dead? */
    bool linkDeadExternally(Port out) const { return _linkDeadExt[out]; }

    /**
     * Force the directed link behind @p out into an outage starting
     * now, for @p duration ticks (0 = until forceLinkUp). Unlike
     * setLinkDead -- a routing advertisement only honored in
     * fault-tolerant mode -- this kills the wire itself: transmissions
     * die as linkDownDrops in every routing mode, and only in this
     * direction. Lazily attaches a quiet FaultModel when none is
     * configured.
     */
    void forceLinkDown(Port out, Tick duration = 0);

    /** End a forced outage on @p out and kick parked traffic. */
    void forceLinkUp(Port out);

    /** Total packets parked in input queues (quiescence checks). */
    std::size_t
    queuedPackets() const
    {
        std::size_t n = 0;
        for (const auto &in : _inputs)
            n += in.queue.size();
        return n;
    }

    /** Corrupted-packet count (the historical error-injection stat). */
    std::uint64_t errorsInjected() const { return _faultCorrupts.value(); }

    // ---- used by the upstream router ----
    bool hasCredit(Port in) const;
    void reserveCredit(Port in);
    void headerArrive(Port in, NetPacket &&pkt, Tick ready);

    /**
     * Park a wakeup for a credit on input port @p in. Waiters are
     * woken in FIFO registration order, one per released credit, so
     * two upstream routers contending for the same buffer alternate
     * instead of one starving the other. @p key identifies the waiter
     * (upstream router identity): re-registering an already-parked
     * key is a no-op, keeping the queue duplicate-free while blocked
     * senders re-poll.
     */
    void addCreditWaiter(Port in, std::uint64_t key,
                         std::function<void()> fn);

    /** Serialization time of @p pkt on our links. */
    Tick
    serializationTime(const NetPacket &pkt) const
    {
        return (pkt.wireBytes() * ONE_SEC + _params.linkBytesPerSec - 1) /
               _params.linkBytesPerSec;
    }

    stats::Group &statGroup() { return _stats; }

  private:
    struct Entry
    {
        NetPacket pkt;
        Tick ready;     //!< header decoded; eligible to forward
    };

    struct Waiter
    {
        std::uint64_t key;      //!< upstream identity (dedup only)
        std::function<void()> fn;
    };

    struct InputPort
    {
        std::deque<Entry> queue;
        unsigned reserved = 0;  //!< slots claimed (queued or in flight)
        std::deque<Waiter> waiters;     //!< FIFO wake order
    };

    /**
     * Routing decision for one packet. `out == NUM_PORTS` means no
     * usable route exists (drop). A detour is only *applied* to the
     * packet (yFirst flag, misroute budget) when the forward actually
     * commits, so retries blocked on credit never burn the budget.
     */
    struct RouteDecision
    {
        Port out;
        bool detour;        //!< out deviates from dimension order
        bool yFirstAfter;   //!< yFirst value to stamp when detouring
    };

    /** Plain dimension-order preference (honoring pkt.yFirst). */
    Port preferredPort(const NetPacket &pkt) const;

    /** Can @p out carry traffic at @p now (fault-tolerant mode)? */
    bool linkUsable(Port out, Tick now) const;

    RouteDecision routeOf(const NetPacket &pkt, Tick now) const;

    /** Try to make forwarding progress on every input port. */
    void advance();

    /** Schedule advance() at @p when (keeps the earliest request). */
    void scheduleAdvance(Tick when);

    /** Release one buffer slot of @p in and wake its next waiter. */
    void releaseCredit(Port in);

    /** Wake the head credit waiter of @p in; if more remain, park a
     *  same-tick recheck so an unconsumed credit passes down the line. */
    void wakeOneWaiter(Port in);

    unsigned _x, _y;
    Params _params;
    std::array<InputPort, NUM_PORTS> _inputs;
    std::array<Router *, NUM_PORTS> _neighbor{};
    std::array<Port, NUM_PORTS> _neighborIn{};
    std::array<Tick, NUM_PORTS> _outBusyUntil{};
    NetworkSink *_sink = nullptr;
    std::function<void()> _injectWaiter;
    EventFunctionWrapper _advanceEvent;
    std::array<std::unique_ptr<FaultModel>, NUM_PORTS> _faults;
    std::array<bool, NUM_PORTS> _linkDeadExt{};

    stats::Group _stats;
    stats::Counter _forwarded{"forwarded", "packets forwarded"};
    stats::Counter _ejected{"ejected", "packets ejected to the sink"};
    stats::Counter _injected{"injected", "packets injected locally"};
    stats::Counter _blockedOnCredit{"blockedOnCredit",
                                    "forward attempts blocked on credit"};
    stats::Counter _blockedOnSink{"blockedOnSink",
                                  "ejections blocked by a busy sink"};
    stats::Counter _faultDrops{"faultDrops",
                               "packets dropped by the link fault model"};
    stats::Counter _faultCorrupts{"faultCorrupts",
                                  "packets corrupted on the wire"};
    stats::Counter _faultDuplicates{"faultDuplicates",
                                    "packets duplicated on the wire"};
    stats::Counter _faultReorders{"faultReorders",
                                  "packets delayed past successors"};
    stats::Counter _linkDownDrops{"linkDownDrops",
                                  "packets lost to link outage windows"};
    stats::Counter _misroutes{"misroutes",
                              "detours taken around dead links"};
    stats::Counter _routeAroundDrops{
        "routeAroundDrops",
        "packets dropped with no usable route left"};
    stats::Counter _ecnMarks{
        "ecnMarks", "data packets congestion-marked at arrival"};
    stats::Histogram _queueDepth{
        "inQueueDepth", "input-port queue depth at header arrival"};
};

} // namespace shrimp

#endif // SHRIMP_NET_ROUTER_HH
