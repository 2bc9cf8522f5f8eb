/**
 * @file
 * Router: one node of the Paragon-style routing backplane -- an
 * iMRC-like 5-port mesh router with deterministic dimension-order
 * (X then Y) routing, which is oblivious and deadlock-free and, with
 * FIFO links, preserves per-sender/receiver packet order. These are
 * exactly the three properties Section 3 of the paper relies on.
 * Only a failed link changes the route. The router owns each output
 * link's state: advertised dead (setLinkDead) or cut at the wire
 * (forceLinkDown). A link advertised dead, or cut for at least
 * routeAroundAfter, is detoured around within a per-packet misroute
 * budget; routingFunction() decides every hop from the router's
 * position, its link masks and the packet's route state alone.
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
#include <functional>
#include <memory>
#include <vector>

#include "net/fault_model.hh"
#include "net/packet.hh"
#include "sim/logging.hh"
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

    /** Header decision, per hop. */
    static constexpr Tick routingLatency = 40 * ONE_NS;
    /** Wire propagation. */
    static constexpr Tick linkLatency = 8 * ONE_NS;
    /** 16-bit-flit Paragon-style links; comfortably more than twice
     *  the EISA bottleneck, as the paper requires. */
    static constexpr std::uint64_t linkBytesPerSec = 80'000'000;

    /** Outage age before a flapping link is routed around; shorter
     *  flaps are left to the NI's retransmission layer. */
    static constexpr Tick routeAroundAfter = 200 * ONE_US;
    /** Detours one packet may take before the router gives up and
     *  drops it (livelock guard under multiple failures). */
    static constexpr unsigned misrouteBudget = 8;

    /** A set of ports holds bit `portBit(p)` for each member p. */
    static constexpr unsigned
    portBit(Port p)
    {
        return 1u << p;
    }

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

    struct Params
    {
        unsigned inputBufferPackets = 4;

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
    bool
    injectReady() const
    {
        return _inputs[LOCAL].reserved < _params.inputBufferPackets;
    }

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

    /**
     * Externally advertise the output link behind @p out as dead (or
     * alive again) -- the health service / backplane uses this when a
     * peer or cable is known down, and routing detours around it.
     * Reviving a link kicks the pipeline so parked traffic
     * immediately retries the preferred route.
     */
    void setLinkDead(Port out, bool dead);

    /**
     * Cut the directed link behind @p out at the wire from now until
     * forceLinkUp. Unlike setLinkDead -- a routing advertisement --
     * this kills the wire itself: transmissions die as linkDownDrops
     * before the link's fault model rolls, and only in this
     * direction; routing detours only once the cut is older than
     * routeAroundAfter. Cutting a cut link keeps its start tick.
     */
    void forceLinkDown(Port out);

    /** Restore a cut link and kick parked traffic. */
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

    // ---- used by the upstream router ----
    bool hasCredit(Port in);
    void reserveCredit(Port in);
    void headerArrive(Port in, NetPacket &&pkt, Tick ready);

    /**
     * Is the upstream router behind input port @p in parked waiting
     * for one of its credits? Each input port has exactly one
     * upstream (the backplane wires every link as a symmetric pair),
     * so one flag is the whole wait list; the next released credit
     * clears it and re-runs that router's advance loop.
     */
    bool
    upstreamBlocked(Port in) const
    {
        return _inputs[in].upstreamBlocked;
    }

    /** Serialization time of @p pkt on our links. */
    Tick
    serializationTime(const NetPacket &pkt) const
    {
        return (pkt.wireBytes() * ONE_SEC + linkBytesPerSec - 1) /
               linkBytesPerSec;
    }

    stats::Group &statGroup() { return _stats; }

  private:
    struct Entry
    {
        NetPacket pkt;
        Tick ready;     //!< header decoded; eligible to forward
    };

    /** A FIFO of fixed capacity: credits bound every router queue. */
    template <typename T>
    class Ring
    {
      public:
        void init(std::size_t capacity) { _buf.resize(capacity); }
        bool empty() const { return _size == 0; }
        std::size_t size() const { return _size; }
        T &front() { return _buf[_head]; }
        T &back() { return _buf[index(_size - 1)]; }

        void
        push_back(T &&v)
        {
            SHRIMP_ASSERT(_size < _buf.size(), "router ring overflow");
            _buf[index(_size)] = std::move(v);
            ++_size;
        }

        /** The popped entry stays in its slot until a push
         *  overwrites it. */
        void
        pop_front()
        {
            _head = index(1);
            --_size;
        }

      private:
        std::size_t
        index(std::size_t i) const
        {
            std::size_t at = _head + i;
            return at < _buf.size() ? at : at - _buf.size();
        }

        std::vector<T> _buf;
        std::size_t _head = 0;
        std::size_t _size = 0;
    };

    /** Wakes the upstream parked on a link input port's credit. */
    struct CreditWake : Event
    {
        Router *router = nullptr;
        Port in = LOCAL;
        EventQueue::Slot at;    //!< the release slot it fires at

        void process() override { router->wakeUpstream(in); }
        const char *description() const override { return "credit wake"; }
    };

    struct InputPort
    {
        Ring<Entry> queue;
        /** Slots claimed: queued, in flight toward us, or held until
         *  a packet's tail leaves. */
        unsigned reserved = 0;
        /** Link ports: where each held slot is released, reserved at
         *  the position its tail-departure event would take. A
         *  release counts as freed once the queue has reached it. */
        std::vector<EventQueue::Slot> releases;
        bool upstreamBlocked = false;   //!< upstream waits on a credit
        /** Fires at the earliest pending release while the upstream
         *  is parked, doing what that release's event would. */
        CreditWake wake;
    };

    /** routingFunction() over this router's link state at @p now. */
    RouteDecision routeOf(const NetPacket &pkt, Tick now) const;

    /** Try to make forwarding progress on every input port. */
    void advance();

    /** Schedule advance() at @p when (keeps the earliest request). */
    void scheduleAdvance(Tick when);

    /** Release one buffer slot of @p in and wake a blocked upstream. */
    void releaseCredit(Port in);

    /** Release @p in's slot of a packet whose tail leaves at @p when. */
    void releaseAt(Port in, Tick when);

    /** Free the slots of @p port whose release the queue has reached. */
    void freeReleased(InputPort &port);

    /** Park the upstream behind input port @p in on its next credit. */
    void parkUpstream(Port in);

    /** Fire @p port's wake at @p s if that is earlier than it is set. */
    void armWake(InputPort &port, const EventQueue::Slot &s);

    /** A release of @p in was reached: re-run a parked upstream. */
    void wakeUpstream(Port in);

    unsigned _x, _y;
    Params _params;
    std::array<InputPort, NUM_PORTS> _inputs;
    std::array<Router *, NUM_PORTS> _neighbor{};
    std::array<Port, NUM_PORTS> _neighborIn{};
    std::array<Tick, NUM_PORTS> _outBusyUntil{};
    NetworkSink *_sink = nullptr;
    /** Packets crossing the ejection channel, in start order (which is
     *  completion order: the channel is busy until each finishes). */
    Ring<NetPacket> _ejecting;
    std::function<void()> _injectWaiter;
    ElidableEvent _advanceEvent;
    std::array<std::unique_ptr<FaultModel>, NUM_PORTS> _faults;
    /** Link state, as sets of portBit: the ports wired to a
     *  neighbour, those advertised dead (setLinkDead) and those cut
     *  at the wire (forceLinkDown), with when each cut began. */
    unsigned _present = 0;
    unsigned _dead = 0;
    unsigned _cut = 0;
    std::array<Tick, NUM_PORTS> _cutSince{};

    stats::Group _stats;
    stats::Counter _forwarded{_stats, "forwarded", "packets forwarded"};
    stats::Counter _ejected{_stats, "ejected", "packets ejected to the sink"};
    stats::Counter _injected{_stats, "injected", "packets injected locally"};
    stats::Counter _blockedOnCredit{_stats, "blockedOnCredit",
                                    "forward attempts blocked on credit"};
    stats::Counter _blockedOnSink{_stats, "blockedOnSink",
                                  "ejections blocked by a busy sink"};
    stats::Counter _faultDrops{_stats, "faultDrops",
                               "packets dropped by the link fault model"};
    stats::Counter _faultCorrupts{_stats, "faultCorrupts",
                                  "packets corrupted on the wire"};
    stats::Counter _faultDuplicates{_stats, "faultDuplicates",
                                    "packets duplicated on the wire"};
    stats::Counter _faultReorders{_stats, "faultReorders",
                                  "packets delayed past successors"};
    stats::Counter _linkDownDrops{_stats, "linkDownDrops",
                                  "transmissions lost on cut links"};
    stats::Counter _misroutes{_stats, "misroutes",
                              "detours taken around dead links"};
    stats::Counter _routeAroundDrops{
        _stats, "routeAroundDrops",
        "packets dropped with no usable route left"};
    stats::Counter _ecnMarks{
        _stats, "ecnMarks", "data packets congestion-marked at arrival"};
    stats::Histogram _queueDepth{
        _stats, "inQueueDepth", "input-port queue depth at header arrival"};
};

/**
 * The route of one packet at one router, a pure function of the
 * router's coordinates (@p x, @p y), the ports that have a neighbour
 * (@p present) and those that can carry traffic now (@p usable), both
 * sets of Router::portBit, and the packet's route state: dstX, dstY,
 * yFirst and misroutes (no other field is read).
 *
 * The preferred port is dimension order, X then Y, or Y then X for a
 * packet carrying yFirst. When it is not usable, the packet detours
 * one hop perpendicular to the failed dimension: toward the
 * destination's row (X failed) or column (Y failed), or, when already
 * in it, south or east if that neighbour is present. The opposite
 * perpendicular port is the fallback. An X detour clears yFirst, a Y
 * detour sets it. A spent misroute budget or no usable candidate
 * yields `out == NUM_PORTS`.
 */
Router::RouteDecision routingFunction(unsigned x, unsigned y,
                                      unsigned present, unsigned usable,
                                      const NetPacket &pkt);

} // namespace shrimp

#endif // SHRIMP_NET_ROUTER_HH
