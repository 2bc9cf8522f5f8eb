#include "os/health.hh"

#include "os/kernel.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

const char *
peerHealthName(PeerHealth s)
{
    switch (s) {
      case PeerHealth::ALIVE:
        return "ALIVE";
      case PeerHealth::SUSPECT:
        return "SUSPECT";
      case PeerHealth::DEAD:
        return "DEAD";
    }
    return "?";
}

HealthMonitor::HealthMonitor(Kernel &kernel, const HealthParams &params)
    : SimObject(kernel.eventQueue(), kernel.name() + ".health"),
      _kernel(kernel),
      _params(params),
      _self(kernel.nodeId()),
      _peers(kernel.numNodes()),
      _tickEvent([this] { tick(); }, "health tick"),
      _stats("health", &kernel.statGroup())
{
    SHRIMP_ASSERT(_params.heartbeatPeriod > 0, "zero heartbeat period");
    SHRIMP_ASSERT(_params.suspectTimeout >= _params.heartbeatPeriod,
                  "suspect timeout shorter than one heartbeat");
    SHRIMP_ASSERT(_params.deadTimeout > _params.suspectTimeout,
                  "dead timeout must exceed suspect timeout");
}

void
HealthMonitor::start()
{
    if (_running)
        return;
    _running = true;
    Tick now = curTick();
    for (PeerState &p : _peers)
        p.lastSeen = now;       // grace period: nobody starts SUSPECT
    reschedule(_tickEvent, now + _params.heartbeatPeriod);
}

void
HealthMonitor::pause()
{
    if (!_running)
        return;
    _running = false;
    if (_tickEvent.scheduled())
        deschedule(_tickEvent);
}

void
HealthMonitor::resume()
{
    if (_running)
        return;
    _running = true;
    Tick now = curTick();
    // Fresh grace period; peers we declared DEAD before (or while) we
    // were down stay DEAD until their next heartbeat proves otherwise.
    for (PeerState &p : _peers)
        p.lastSeen = now;
    // A restart is a new life: anything still in flight from the old
    // one must be fenced machine-wide.
    bumpIncarnation("restart");
    reschedule(_tickEvent, now + _params.heartbeatPeriod);
}

std::uint32_t
HealthMonitor::peerIncarnation(NodeId peer) const
{
    return _peers.at(peer).incarnation;
}

std::uint64_t
HealthMonitor::stampFor(NodeId peer) const
{
    return (static_cast<std::uint64_t>(_selfInc) << 32) |
           _peers.at(peer).incarnation;
}

void
HealthMonitor::bumpIncarnation(const char *why)
{
    ++_selfInc;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "health", "incarnationBump",
                   {trace::arg("incarnation",
                               static_cast<std::uint64_t>(_selfInc)),
                    trace::arg("why", why)});
    }
    _kernel.selfEpochBumped(_selfInc);
}

bool
HealthMonitor::admitStamp(NodeId src, std::uint64_t stamp)
{
    return checkStamp(src, stamp) == StampVerdict::ADMIT;
}

HealthMonitor::StampVerdict
HealthMonitor::checkStamp(NodeId src, std::uint64_t stamp)
{
    if (src >= _peers.size() || src == _self)
        return StampVerdict::ADMIT;
    std::uint32_t inc = stampIncarnation(stamp);
    std::uint32_t view = stampView(stamp);
    PeerState &p = _peers[src];

    // A message from an older life of the sender is a relic of a
    // healed partition or a pre-restart stream.
    const char *reason = nullptr;
    StampVerdict verdict = StampVerdict::ADMIT;
    if (inc != 0 && p.incarnation != 0 &&
        Incarnation::newerLife(p.incarnation, inc)) {
        reason = "staleSender";
        verdict = StampVerdict::STALE_SENDER;
    }

    // Record a newer sender incarnation BEFORE the view check: even if
    // the message itself is fenced below, membership knowledge must
    // advance, or two nodes that bumped simultaneously (both sides of
    // a heal) would carry stale views of each other and reject each
    // other's heartbeats forever.
    if (!reason && Incarnation::newerLife(inc, p.incarnation)) {
        bool first = p.incarnation == 0;
        p.incarnation = inc;
        if (!first)
            _kernel.peerEpochChanged(src, inc);
    }

    // A message addressed to a previous life of this node (the sender
    // has not yet observed our bump) must not touch current state.
    if (!reason && view != 0 && !Incarnation::sameLife(view, _selfInc)) {
        reason = "staleView";
        verdict = StampVerdict::STALE_VIEW;
    }

    if (reason) {
        ++_staleEpochRejects;
        if (auto *t = eventQueue().tracer()) {
            t->instant(
                curTick(), name(), "health", "staleEpochReject",
                {trace::arg("src", static_cast<std::uint64_t>(src)),
                 trace::arg("inc", static_cast<std::uint64_t>(inc)),
                 trace::arg("view", static_cast<std::uint64_t>(view)),
                 trace::arg("reason", reason)});
        }
    }
    return verdict;
}

bool
HealthMonitor::quorumReachable() const
{
    // A two-node machine has no possible strict majority once the
    // peer is silent; silence must still mean death there or no
    // failure could ever be declared.
    if (_peers.size() <= 2)
        return true;
    unsigned reachable = 1;     // self
    for (NodeId peer = 0; peer < _peers.size(); ++peer) {
        if (peer != _self && _peers[peer].state == PeerHealth::ALIVE)
            ++reachable;
    }
    return reachable * 2 > _peers.size();
}

void
HealthMonitor::heartbeatFrom(NodeId src, std::uint64_t stamp)
{
    if (!_running || src >= _peers.size() || src == _self)
        return;
    // A heartbeat from a stale life is not liveness evidence: it must
    // not refresh lastSeen or resurrect the peer. A stale VIEW is
    // different: the sender's current life demonstrably produced this
    // heartbeat, it just has not observed our bump yet. Fencing those
    // too makes bumps metastable -- every bump would reject the next
    // heartbeat round machine-wide, re-declare peers dead, and each
    // recovery would bump again, churning forever.
    if (checkStamp(src, stamp) == StampVerdict::STALE_SENDER)
        return;
    ++_heartbeatsReceived;
    PeerState &p = _peers[src];
    p.lastSeen = curTick();
    if (p.state != PeerHealth::ALIVE)
        transition(src, PeerHealth::ALIVE);
}

void
HealthMonitor::reportPeerFailure(NodeId peer)
{
    if (!_running || peer >= _peers.size() || peer == _self)
        return;
    if (_peers[peer].state != PeerHealth::DEAD)
        transition(peer, PeerHealth::DEAD);
}

PeerHealth
HealthMonitor::peerState(NodeId peer) const
{
    return _peers.at(peer).state;
}

void
HealthMonitor::tick()
{
    if (!_running)
        return;
    Tick now = curTick();

    for (NodeId peer = 0; peer < _peers.size(); ++peer) {
        if (peer == _self)
            continue;
        // Keep heartbeating DEAD peers too: a restarted node learns we
        // are alive from our keepalives, just as we learn from its.
        ++_heartbeatsSent;
        _kernel.ni().sendHeartbeat(peer, stampFor(peer));
        PeerState &p = _peers[peer];
        Tick silence = now - p.lastSeen;
        if (p.state == PeerHealth::ALIVE &&
            silence >= _params.suspectTimeout) {
            transition(peer, PeerHealth::SUSPECT);
        }
        if (p.state == PeerHealth::SUSPECT &&
            silence >= _params.deadTimeout) {
            if (quorumReachable()) {
                transition(peer, PeerHealth::DEAD);
            } else if (!p.quorumStalled) {
                // We are (probably) the minority side of a partition:
                // without a reachable majority, silence proves nothing
                // about the peer. Stall here instead of declaring the
                // majority dead.
                p.quorumStalled = true;
                ++_partitionsDeclared;
                if (auto *t = eventQueue().tracer()) {
                    t->instant(
                        now, name(), "health", "partitionSuspected",
                        {trace::arg("peer",
                                    static_cast<std::uint64_t>(peer))});
                }
            }
        }
    }

    reschedule(_tickEvent, now + _params.heartbeatPeriod);
}

void
HealthMonitor::transition(NodeId peer, PeerHealth to)
{
    PeerState &p = _peers[peer];
    PeerHealth from = p.state;
    p.state = to;

    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "health", "peerState",
                   {trace::arg("peer", static_cast<std::uint64_t>(peer)),
                    trace::arg("from", peerHealthName(from)),
                    trace::arg("to", peerHealthName(to))});
    }

    switch (to) {
      case PeerHealth::SUSPECT:
        ++_suspects;
        break;
      case PeerHealth::DEAD:
        p.quorumStalled = false;
        ++_peersDeclaredDead;
        _kernel.peerDied(peer);
        break;
      case PeerHealth::ALIVE:
        if (from == PeerHealth::DEAD || p.quorumStalled) {
            // The far side of a partition (or a restarted peer) is
            // back. Start a new life of our own first, so any of our
            // pre-partition traffic still queued in the fabric is
            // fenced by every receiver; then reintegrate the peer.
            bool stalled = p.quorumStalled;
            for (PeerState &q : _peers)
                q.quorumStalled = false;
            bumpIncarnation(stalled ? "partition heal"
                                    : "peer recovered");
        }
        if (from == PeerHealth::DEAD) {
            ++_peersRecovered;
            _kernel.peerRecovered(peer);
        }
        break;
    }
}

} // namespace shrimp
