#include "net/router.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

Router::Router(EventQueue &eq, std::string name, unsigned x, unsigned y,
               const Params &params)
    : SimObject(eq, std::move(name)),
      _x(x),
      _y(y),
      _params(params),
      _advanceEvent(eq, [this] { advance(); }, "router advance"),
      _stats(this->name())
{
    for (unsigned p = 0; p < NUM_PORTS; ++p) {
        InputPort &port = _inputs[p];
        port.queue.init(params.inputBufferPackets);
        port.releases.reserve(params.inputBufferPackets);
        port.wake.router = this;
        port.wake.in = static_cast<Port>(p);
    }
    // Each ejecting packet holds a slot of its input port.
    _ejecting.init(NUM_PORTS * params.inputBufferPackets);
}

void
Router::setLinkDead(Port out, bool dead)
{
    SHRIMP_ASSERT(out != LOCAL, "the ejection channel cannot die");
    if (((_dead & portBit(out)) != 0) == dead)
        return;
    _dead ^= portBit(out);
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "net",
                   dead ? "linkDead" : "linkAlive",
                   {trace::arg("port", static_cast<unsigned>(out))});
    }
    if (!dead)
        scheduleAdvance(curTick());
}

void
Router::setFaultModel(Port out, const FaultModel::Params &params)
{
    SHRIMP_ASSERT(out != LOCAL, "fault model on the ejection channel");
    if (!params.any()) {
        _faults[out].reset();
        return;
    }
    // Salt the seed per link so parallel links misbehave independently.
    std::uint64_t salt =
        (static_cast<std::uint64_t>(_y) << 20) |
        (static_cast<std::uint64_t>(_x) << 4) |
        static_cast<std::uint64_t>(out);
    _faults[out] = std::make_unique<FaultModel>(params, salt);
}

void
Router::forceLinkDown(Port out)
{
    SHRIMP_ASSERT(out != LOCAL, "the ejection channel cannot die");
    if (_cut & portBit(out))
        return;
    _cut |= portBit(out);
    _cutSince[out] = curTick();
}

void
Router::forceLinkUp(Port out)
{
    SHRIMP_ASSERT(out != LOCAL, "the ejection channel cannot die");
    _cut &= ~portBit(out);
    scheduleAdvance(curTick());
}

void
Router::connect(Port out, Router *nbr, Port nbr_in)
{
    SHRIMP_ASSERT(out != LOCAL, "cannot wire the local port");
    _neighbor[out] = nbr;
    _present |= portBit(out);
    _neighborIn[out] = nbr_in;
}

bool
Router::hasCredit(Port in)
{
    InputPort &port = _inputs[in];
    freeReleased(port);
    return port.reserved < _params.inputBufferPackets;
}

void
Router::reserveCredit(Port in)
{
    // Callers check hasCredit() first, which frees reached releases.
    InputPort &port = _inputs[in];
    SHRIMP_ASSERT(port.reserved < _params.inputBufferPackets,
                  "credit overrun on port ", in);
    ++port.reserved;
}

void
Router::headerArrive(Port in, NetPacket &&pkt, Tick ready)
{
    InputPort &port = _inputs[in];
    port.queue.push_back(Entry{std::move(pkt), ready});
    _queueDepth.sample(port.queue.size());

    // ECN: a DATA packet queueing behind ecnThresholdPackets others is
    // experiencing congestion; mark it so the receiver's ACK pushes
    // the sender's window down before buffers overflow into loss.
    NetPacket &queued = port.queue.back().pkt;
    if (_params.ecnThresholdPackets != 0 && queued.reliable &&
        queued.kind == NetPacket::Kind::DATA && !queued.congestion &&
        port.queue.size() >= _params.ecnThresholdPackets) {
        queued.congestion = true;
        ++_ecnMarks;
    }

    scheduleAdvance(ready > curTick() ? ready : curTick());
}

void
Router::inject(NetPacket &&pkt)
{
    SHRIMP_ASSERT(injectReady(), "inject without credit");
    ++_injected;
    reserveCredit(LOCAL);
    // Local injection still pays the routing decision latency.
    headerArrive(LOCAL, std::move(pkt), curTick() + routingLatency);
}

Router::RouteDecision
Router::routeOf(const NetPacket &pkt, Tick now) const
{
    // A link is usable when it is wired, not advertised dead, and not
    // cut for routeAroundAfter or longer.
    unsigned usable = _present & ~_dead;
    for (Port p : {EAST, WEST, NORTH, SOUTH}) {
        if ((_cut & portBit(p)) && now - _cutSince[p] >= routeAroundAfter)
            usable &= ~portBit(p);
    }
    return routingFunction(_x, _y, _present, usable, pkt);
}

Router::RouteDecision
routingFunction(unsigned x, unsigned y, unsigned present, unsigned usable,
                const NetPacket &pkt)
{
    using P = Router::Port;
    // Dimension order: correct X first, then Y (oblivious, deadlock
    // free per Dally & Seitz). A packet that detoured around a dead
    // Y link carries yFirst and finishes Y before resuming X, so it
    // cannot bounce back across the failed column.
    P x_port = pkt.dstX > x ? P::EAST : pkt.dstX < x ? P::WEST : P::LOCAL;
    P y_port = pkt.dstY > y ? P::SOUTH : pkt.dstY < y ? P::NORTH : P::LOCAL;
    P pref = pkt.yFirst ? (y_port != P::LOCAL ? y_port : x_port)
                        : (x_port != P::LOCAL ? x_port : y_port);
    if (pref == P::LOCAL)
        return {P::LOCAL, false, false};
    if (usable & Router::portBit(pref))
        return {pref, false, false};
    if (pkt.misroutes >= Router::misrouteBudget)
        return {P::NUM_PORTS, false, false};

    // Misroute one hop perpendicular to the dead dimension, preferring
    // the direction that still makes progress. An X detour clears
    // yFirst (the next router retries X from a different row); a Y
    // detour sets it (finish Y from a different column first). Each
    // detour adds at most one extra turn, and with a single failed
    // link that turn cannot close a cycle with dimension-order's
    // allowed turns -- the turn-model argument for deadlock freedom.
    // Multiple simultaneous failures are instead bounded by the
    // misroute budget: the packet is dropped rather than livelocked,
    // and the reliability layer retransmits.
    bool x_dim = pref == P::EAST || pref == P::WEST;
    P primary;
    if (x_dim) {
        primary = y_port != P::LOCAL                    ? y_port
                  : present & Router::portBit(P::SOUTH) ? P::SOUTH
                                                        : P::NORTH;
    } else {
        primary = x_port != P::LOCAL                   ? x_port
                  : present & Router::portBit(P::EAST) ? P::EAST
                                                       : P::WEST;
    }
    P secondary = primary == P::EAST    ? P::WEST
                  : primary == P::WEST  ? P::EAST
                  : primary == P::SOUTH ? P::NORTH
                                        : P::SOUTH;
    for (P cand : {primary, secondary}) {
        if (usable & Router::portBit(cand))
            return {cand, true, !x_dim};
    }
    return {P::NUM_PORTS, false, false};
}

void
Router::releaseAt(Port in, Tick when)
{
    if (in == LOCAL) {
        // The inject waiter kicks the NI on every LOCAL release, so
        // that release stays an event.
        eventQueue().scheduleFn([this] { releaseCredit(LOCAL); }, when,
                                EventPriority::DEFAULT, "tail departure");
        return;
    }
    // A link port's release matters only to its upstream, which reads
    // it through hasCredit() or is woken by it: reserve the position
    // a tail-departure event would take, so both see it there. Each
    // held slot counts in `reserved`, so at most inputBufferPackets
    // releases are pending.
    InputPort &port = _inputs[in];
    port.releases.push_back(eventQueue().reserve(when));
    if (port.upstreamBlocked)
        armWake(port, port.releases.back());
}

void
Router::freeReleased(InputPort &port)
{
    auto &rel = port.releases;
    for (std::size_t i = 0; i < rel.size();) {
        if (eventQueue().reached(rel[i])) {
            rel[i] = rel.back();
            rel.pop_back();
            --port.reserved;
        } else {
            ++i;
        }
    }
}

void
Router::parkUpstream(Port in)
{
    InputPort &port = _inputs[in];
    port.upstreamBlocked = true;
    // The first release the queue reaches from here on wakes it.
    freeReleased(port);
    const EventQueue::Slot *first = nullptr;
    for (const EventQueue::Slot &s : port.releases) {
        if (!first || s < *first)
            first = &s;
    }
    if (first)
        armWake(port, *first);
}

void
Router::armWake(InputPort &port, const EventQueue::Slot &s)
{
    if (port.wake.scheduled()) {
        if (!(s < port.wake.at))
            return;
        eventQueue().deschedule(&port.wake);
    }
    port.wake.at = s;
    eventQueue().scheduleAt(&port.wake, s);
}

void
Router::wakeUpstream(Port in)
{
    // An ejection's releaseCredit may have woken the upstream first.
    InputPort &port = _inputs[in];
    if (!port.upstreamBlocked)
        return;
    port.upstreamBlocked = false;
    _neighbor[in]->scheduleAdvance(curTick());
}

void
Router::releaseCredit(Port in)
{
    InputPort &port = _inputs[in];
    SHRIMP_ASSERT(port.reserved > 0, "credit underflow on port ", in);
    --port.reserved;

    if (port.upstreamBlocked) {
        // Input port `in` is fed only by our neighbour across link
        // `in`, so that router is the one parked on this credit.
        port.upstreamBlocked = false;
        _neighbor[in]->scheduleAdvance(curTick());
    }

    if (in == LOCAL && _injectWaiter)
        _injectWaiter();
}

void
Router::advance()
{
    Tick now = curTick();

    for (unsigned p = 0; p < NUM_PORTS; ++p) {
        InputPort &in = _inputs[p];
        if (in.queue.empty())
            continue;

        Entry &head = in.queue.front();
        if (head.ready > now) {
            scheduleAdvance(head.ready);
            continue;
        }

        RouteDecision rd = routeOf(head.pkt, now);
        Port out = rd.out;

        if (out == NUM_PORTS) {
            // Every output toward the destination is dead (or the
            // misroute budget is spent). Drop here: the reliability
            // layer retransmits, and a later attempt re-probes links
            // that may have recovered.
            ++_routeAroundDrops;
            if (auto *t = eventQueue().tracer(); t && head.pkt.traceId) {
                t->flowEnd(now, name(), "packet", "lost",
                           head.pkt.traceId,
                           {trace::arg("reason", "noRoute")});
            }
            in.queue.pop_front();
            eventQueue().scheduleFn(
                [this, p]() { releaseCredit(static_cast<Port>(p)); },
                now, EventPriority::DEFAULT, "no-route drop");
            // The drop freed the head of this queue; packets behind
            // it must be re-examined now or they stall until some
            // unrelated event happens to re-arm the advance loop.
            scheduleAdvance(now);
            continue;
        }

        if (_outBusyUntil[out] > now) {
            scheduleAdvance(_outBusyUntil[out]);
            continue;
        }

        Tick ser = serializationTime(head.pkt);

        if (out == LOCAL) {
            SHRIMP_ASSERT(_sink, "ejection with no sink at ", name());
            if (!_sink->sinkReady()) {
                // Backpressure: hold the packet; the NIC kicks us via
                // sinkReadyAgain() when its FIFO drains.
                ++_blockedOnSink;
                continue;
            }
            _outBusyUntil[out] = now + ser;
            if (auto *t = eventQueue().tracer(); t && head.pkt.traceId) {
                t->flowStep(now, name(), "packet", "eject",
                            head.pkt.traceId,
                            {trace::arg("x", _x), trace::arg("y", _y)});
            }
            _ejecting.push_back(std::move(head.pkt));
            in.queue.pop_front();
            ++_ejected;
            // The whole packet has crossed into the NIC when its tail
            // clears the ejection channel.
            eventQueue().scheduleFn(
                [this, p] {
                    NetPacket pkt = std::move(_ejecting.front());
                    _ejecting.pop_front();
                    _sink->sinkDeliver(std::move(pkt));
                    releaseCredit(static_cast<Port>(p));
                    scheduleAdvance(curTick());
                },
                now + ser, EventPriority::DEFAULT, "packet ejection");
            continue;
        }

        Router *nbr = _neighbor[out];
        SHRIMP_ASSERT(nbr, "route off the mesh edge at ", name(),
                      " toward port ", static_cast<unsigned>(out));
        Port nbr_in = _neighborIn[out];

        if (!nbr->hasCredit(nbr_in)) {
            // Park on the downstream port: its next released credit
            // re-runs this loop. Blocking again while parked is a
            // no-op, so one credit never wakes us twice.
            ++_blockedOnCredit;
            nbr->parkUpstream(nbr_in);
            continue;
        }

        // The transmission commits past this point: only now stamp a
        // detour onto the packet, so a forward that was repeatedly
        // blocked on credit never burned the misroute budget.
        if (rd.detour) {
            head.pkt.yFirst = rd.yFirstAfter;
            ++head.pkt.misroutes;
            ++_misroutes;
            if (auto *t = eventQueue().tracer(); t && head.pkt.traceId) {
                t->flowStep(now, name(), "packet", "misroute",
                            head.pkt.traceId,
                            {trace::arg("out",
                                        static_cast<unsigned>(out))});
            }
        }

        // A cut wire loses the transmission outright. Otherwise the
        // link fault model rules on it, decided only here -- after the
        // credit check -- so a blocked forward retried later never
        // re-rolls the dice for the same packet.
        bool cut = _cut & portBit(out);
        FaultModel *fm = _faults[out].get();
        FaultModel::Action act = fm && !cut ? fm->decide()
                                            : FaultModel::Action::PASS;

        if (cut || act == FaultModel::Action::DROP) {
            // The wire was occupied, but nothing arrives downstream.
            ++(cut ? _linkDownDrops : _faultDrops);
            if (auto *t = eventQueue().tracer();
                t && head.pkt.traceId) {
                t->flowEnd(now, name(), "packet", "lost",
                           head.pkt.traceId,
                           {trace::arg("reason",
                                       cut ? "linkDown" : "faultDrop")});
            }
            _outBusyUntil[out] = now + ser;
            in.queue.pop_front();
            releaseAt(static_cast<Port>(p), now + ser);
            scheduleAdvance(now + ser);
            continue;
        }

        // Forward: reserve the downstream slot now, occupy our output
        // link for the serialization time, and hand the header to the
        // neighbour after wire latency. Cut-through: the downstream
        // router may begin forwarding after its routing latency; the
        // tail follows the header by the serialization time, which is
        // modeled by keeping the downstream output link busy via the
        // same per-link serialization charge.
        nbr->reserveCredit(nbr_in);
        _outBusyUntil[out] = now + ser;
        ++_forwarded;

        NetPacket pkt = std::move(head.pkt);
        in.queue.pop_front();

        if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
            t->flowStep(now, name(), "packet", "hop", pkt.traceId,
                        {trace::arg("x", _x), trace::arg("y", _y),
                         trace::arg("out",
                                    static_cast<unsigned>(out))});
        }

        if (act == FaultModel::Action::CORRUPT) {
            fm->corrupt(pkt);
            ++_faultCorrupts;
        }

        Tick header_at = now + linkLatency;
        Tick decoded_at = header_at + routingLatency;

        if (act == FaultModel::Action::REORDER) {
            // Hold the packet past its successors: its header enters
            // the downstream input queue only after reorderDelay, so
            // packets forwarded meanwhile are queued -- and routed --
            // ahead of it. The downstream credit is already reserved,
            // keeping buffer accounting exact.
            ++_faultReorders;
            Tick delay = FaultModel::reorderDelay;
            eventQueue().scheduleFn(
                [nbr, nbr_in, decoded_at, delay,
                 pkt = std::move(pkt)]() mutable {
                    nbr->headerArrive(nbr_in, std::move(pkt),
                                      decoded_at + delay);
                },
                now + delay, EventPriority::DEFAULT, "reorder release");
        } else {
            if (act == FaultModel::Action::DUPLICATE) {
                // A ghost copy follows the original one serialization
                // time later, if the downstream buffer can take it.
                ++_faultDuplicates;
                NetPacket copy = pkt;
                eventQueue().scheduleFn(
                    [this, nbr, nbr_in,
                     copy = std::move(copy)]() mutable {
                        if (!nbr->hasCredit(nbr_in))
                            return;     // duplicate conveniently lost
                        nbr->reserveCredit(nbr_in);
                        nbr->headerArrive(nbr_in, std::move(copy),
                                          curTick() +
                                              routingLatency);
                    },
                    now + ser, EventPriority::DEFAULT, "duplicate");
            }
            nbr->headerArrive(nbr_in, std::move(pkt), decoded_at);
        }

        // Our input buffer slot is held until the tail leaves.
        releaseAt(static_cast<Port>(p), now + ser);

        scheduleAdvance(now + ser);
    }
}

void
Router::scheduleAdvance(Tick when)
{
    if (when < curTick())
        when = curTick();
    if (_advanceEvent.pending() && _advanceEvent.pendingAt() > when)
        _advanceEvent.cancel();
    // With every input queue empty an advance does nothing. Only
    // headerArrive adds a packet, and it requests an advance after.
    _advanceEvent.request(when, queuedPackets() == 0);
}

} // namespace shrimp
