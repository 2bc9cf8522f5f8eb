/**
 * @file
 * HealthMonitor: a kernel-level liveness/failure detector with
 * epoch-fenced membership.
 *
 * The paper assumes live peers; the only failure signal the
 * reproduction had was the NI's retry cap erroring mappings one by
 * one. This service generalizes that into a real failure detector:
 * every node periodically sends HEARTBEAT packets (NI control-queue
 * traffic, bypassing the FIFO and retransmit window) to every peer,
 * records a per-peer last-seen tick, and drives a three-state machine
 *
 *     ALIVE --silence >= suspectTimeout--> SUSPECT
 *     SUSPECT --silence >= deadTimeout--> DEAD (Kernel::peerDied)
 *     DEAD --heartbeat arrives--> ALIVE (Kernel::peerRecovered)
 *
 * External evidence (the retransmit layer exhausting its retry budget
 * toward a peer) can short-circuit straight to DEAD. The monitor calls
 * its kernel's peerDied/peerRecovered for mapping teardown and
 * recovery.
 *
 * Partition tolerance (DESIGN.md section 14) adds two mechanisms:
 *
 *  - Incarnations. Every node carries a monotonic incarnation number,
 *    bumped when it restarts and when it recovers from the far side of
 *    a partition (a DEAD peer speaks again, or a quorum-stalled
 *    SUSPECT peer does). Heartbeats and kernel RPC records carry the
 *    sender's (incarnation, view-of-receiver) stamp; admitStamp()
 *    fences every message stamped with a stale incarnation of either
 *    endpoint, so a healed link cannot replay traffic from a peer's
 *    previous life. staleEpochRejects counts what checkStamp()
 *    fences; the NI's channel-epoch gate and the DSM writeback fence
 *    count on their own stat paths (ni.staleEpochDrops,
 *    kernel.dsm.dsmFencedWritebacks).
 *
 *  - Quorum-gated death. Silence alone only declares a peer DEAD when
 *    this node can still reach a strict majority of the machine
 *    (ALIVE peers + itself). A minority fragment of a partition
 *    therefore stalls its suspects instead of declaring the majority
 *    dead (partitionsDeclared counts the stalls); two-node machines
 *    have no possible majority and keep the pre-partition behavior.
 *    Hard external evidence (reportPeerFailure) still short-circuits.
 */

#ifndef SHRIMP_OS_HEALTH_HH
#define SHRIMP_OS_HEALTH_HH

#include <vector>

#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

class Kernel;

/**
 * Helpers over incarnation (life) numbers. A raw == on incarnation
 * fields outside health.* is a bug (the shrimp-epoch-compare lint rule
 * enforces it): 0 means "never observed" and must never fence, so
 * every consumer goes through these predicates instead.
 */
struct Incarnation
{
    /** Are @p a and @p b the same life of a node? */
    static bool
    sameLife(std::uint32_t a, std::uint32_t b)
    {
        return a == b;
    }

    /** Is @p a a strictly newer life than @p b? */
    static bool
    newerLife(std::uint32_t a, std::uint32_t b)
    {
        return a > b;
    }

    /** Has this life number actually been observed? (0 = never,
     *  and never-observed must not fence anything.) */
    static bool
    observed(std::uint32_t a)
    {
        return a != 0;
    }
};

/** Tunables of the liveness service. */
struct HealthParams
{
    bool enabled = false;
    /** Keepalive send (and timeout evaluation) period. */
    Tick heartbeatPeriod = 100 * ONE_US;
    /** Silence before a peer turns SUSPECT. */
    Tick suspectTimeout = 400 * ONE_US;
    /** Silence before a SUSPECT peer is declared DEAD. */
    Tick deadTimeout = 1200 * ONE_US;
};

/** Liveness state of one peer as seen by this node. */
enum class PeerHealth : std::uint8_t
{
    ALIVE = 0,
    SUSPECT,
    DEAD,
};

const char *peerHealthName(PeerHealth s);

/** Per-node failure detector; one instance lives inside each Kernel. */
class HealthMonitor : public SimObject
{
  public:
    /**
     * The monitor of @p kernel's node. It heartbeats through the
     * kernel's NI and reports to the kernel: peerDied when a peer
     * turns DEAD, peerRecovered when a DEAD peer speaks again,
     * peerEpochChanged when a peer's known incarnation advances, and
     * selfEpochBumped when this node's does.
     */
    HealthMonitor(Kernel &kernel, const HealthParams &params);

    /** Begin heartbeating; peers start with a full grace period. */
    void start();

    /** Local node crashed: stop sending and evaluating. */
    void pause();

    /** Local node restarted: resume with a fresh grace period and a
     *  new incarnation. DEAD peers stay DEAD until their next
     *  heartbeat actually arrives. */
    void resume();

    /** NI hook: a HEARTBEAT from @p src arrived carrying @p stamp. */
    void heartbeatFrom(NodeId src, std::uint64_t stamp);

    /**
     * External failure evidence (retry cap exhausted toward @p peer):
     * declare it DEAD immediately instead of waiting out the silence.
     */
    void reportPeerFailure(NodeId peer);

    PeerHealth peerState(NodeId peer) const;
    bool peerDead(NodeId peer) const
    {
        return peerState(peer) == PeerHealth::DEAD;
    }
    bool running() const { return _running; }

    // ---- epoch-fenced membership ----

    /** This node's current life number (starts at 1, never reused). */
    std::uint32_t selfIncarnation() const { return _selfInc; }

    /** Last incarnation observed from @p peer; 0 = never heard. */
    std::uint32_t peerIncarnation(NodeId peer) const;

    /** Start a new life: every receiver fences our old streams. */
    void bumpIncarnation(const char *why);

    /** Pack (selfIncarnation, view-of-@p peer) into one wire stamp. */
    std::uint64_t stampFor(NodeId peer) const;

    static std::uint32_t
    stampIncarnation(std::uint64_t stamp)
    {
        return static_cast<std::uint32_t>(stamp >> 32);
    }

    static std::uint32_t
    stampView(std::uint64_t stamp)
    {
        return static_cast<std::uint32_t>(stamp);
    }

    /**
     * The fence: admit or reject a message from @p src carrying
     * @p stamp. Rejects (counting staleEpochRejects) when the sender's
     * incarnation is older than the one we know, or when the message
     * is addressed to a previous life of this node. Admitting a newer
     * sender incarnation records it and fires peerEpochChanged.
     */
    bool admitStamp(NodeId src, std::uint64_t stamp);

    /** How checkStamp() judged a message's epoch stamp. */
    enum class StampVerdict
    {
        ADMIT,          //!< current life, current view
        STALE_SENDER,   //!< relic of an older life of the sender
        STALE_VIEW,     //!< live sender, but it has not seen our bump
    };

    /** Can this node still reach a strict majority of the machine? */
    bool quorumReachable() const;

  private:
    struct PeerState
    {
        Tick lastSeen = 0;
        PeerHealth state = PeerHealth::ALIVE;
        /** Last incarnation this peer was observed at (0 = never). */
        std::uint32_t incarnation = 0;
        /** Dead timeout expired but no quorum: stalled at SUSPECT. */
        bool quorumStalled = false;
    };

    /** Classify @p stamp, recording newer sender incarnations and
     *  counting/tracing rejects for both stale verdicts. */
    StampVerdict checkStamp(NodeId src, std::uint64_t stamp);

    /** Periodic: send keepalives, then evaluate every peer's silence. */
    void tick();

    void transition(NodeId peer, PeerHealth to);

    Kernel &_kernel;
    HealthParams _params;
    NodeId _self;
    std::vector<PeerState> _peers;
    bool _running = false;
    std::uint32_t _selfInc = 1;
    EventFunctionWrapper _tickEvent;

    stats::Group _stats;
    stats::Counter _heartbeatsSent{_stats, "heartbeatsSent",
                                   "keepalive packets emitted"};
    stats::Counter _heartbeatsReceived{_stats, "heartbeatsReceived",
                                       "keepalive packets accepted"};
    stats::Counter _suspects{_stats, "suspects",
                             "peer transitions into SUSPECT"};
    stats::Counter _peersDeclaredDead{_stats, "peersDeclaredDead",
                                      "peer transitions into DEAD"};
    stats::Counter _peersRecovered{_stats, "peersRecovered",
                                   "DEAD peers that spoke again"};
    stats::Counter _partitionsDeclared{
        _stats, "partitionsDeclared",
        "dead timeouts stalled at SUSPECT for lack of a quorum"};
    stats::Counter _staleEpochRejects{
        _stats, "staleEpochRejects",
        "messages fenced: stale incarnation of either endpoint"};
};

} // namespace shrimp

#endif // SHRIMP_OS_HEALTH_HH
