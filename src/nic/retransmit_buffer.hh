/**
 * @file
 * RetransmitBuffer: the sender half of the NI's end-to-end reliability
 * layer.
 *
 * The paper's SHRIMP backplane is assumed reliable; the NI's CRC only
 * *detects* corruption. To keep mapped pages coherent over lossy links
 * the NI can run a per-destination sliding-window protocol: every DATA
 * packet carries a sequence number, a bounded window of unacknowledged
 * copies is held here, and the receiver returns cumulative ACKs (and
 * immediate NACKs on a CRC failure or sequence gap). This class owns
 * the sender-side state machine:
 *
 *  - per-destination sequence assignment and a bounded window of
 *    unacked packet copies (a full window backpressures injection, so
 *    the outgoing FIFO -- and ultimately the CPU, via the threshold
 *    interrupt -- stalls instead of losing data);
 *  - a retransmission timer with exponential backoff (rto doubles per
 *    consecutive timeout, capped at rtoMax, reset by forward progress);
 *  - NACK fast retransmit, duplicate-NACK suppressed;
 *  - a retry cap: when one packet exhausts maxRetries the destination
 *    channel is declared failed, its window is discarded and the
 *    failure hook fires so the NI can mark the affected mappings
 *    errored (graceful degradation, never an assertion).
 */

#ifndef SHRIMP_NIC_RETRANSMIT_BUFFER_HH
#define SHRIMP_NIC_RETRANSMIT_BUFFER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/packet.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

/**
 * Congestion-control tunables layered inside the reliability window.
 * Everything here defaults off so the plain sliding-window protocol
 * (and all its timing-exact tests) is unchanged unless a config opts
 * in.
 */
struct CongestionParams
{
    /** AIMD per-destination congestion window inside the reliability
     *  window: clean-ACK progress grows it by one packet per window,
     *  timeouts / NACK losses / ECN echoes halve it. */
    bool enabled = false;

    /**
     * Retry-storm suppression: a per-NI token bucket paces how many
     * retransmissions may leave in a burst. A timeout that finds the
     * bucket empty is deferred (no backoff growth, no retry charge)
     * until the next token accrues. 0 = pacer off.
     */
    unsigned paceBucketPackets = 0;
    Tick paceRefillInterval = 25 * ONE_US;  //!< one token per interval

    /**
     * Seeded jitter on the backed-off retransmission deadline, in
     * permille of the current rto, drawn from sim/random.hh so runs
     * stay deterministic. Desynchronizes the retransmit bursts every
     * sender would otherwise fire in lockstep after a link flap.
     * 0 = no jitter; currentRto()/peakRto never include jitter.
     */
    unsigned rtoJitterPermille = 0;
    std::uint64_t jitterSeed = 0x5EEDBACCULL;   //!< salted per NI
};

/** Tunables of the NI reliability layer. The receiver side's are
 *  constants of ShrimpNi (ackEvery, ackDelay, reorderBufferPackets). */
struct ReliabilityParams
{
    /** Master switch; off preserves the paper's exact wire format. */
    bool enabled = false;

    // ---- sender (RetransmitBuffer) ----
    unsigned windowPackets = 32;    //!< max unacked packets per dest
    Tick rtoBase = 50 * ONE_US;     //!< initial retransmission timeout
    Tick rtoMax = 5 * ONE_MS;       //!< backoff ceiling
    unsigned maxRetries = 8;        //!< per-packet cap before failure
    /** Ceiling on the backoff exponent itself: consecutive timeouts
     *  stop doubling the rto past this, independent of rtoMax (which
     *  only clips the resulting timeout). Keeps recovery probes coming
     *  at a bounded pace during long outages. */
    unsigned backoffExpCap = 16;

    /** End-to-end congestion control (AIMD + pacer + jitter). */
    CongestionParams congestion{};
};

/** Sender-side window/retransmission engine, one per ShrimpNi. */
class RetransmitBuffer : public SimObject
{
  public:
    /** AIMD multiplicative-decrease floor (congestion control). */
    static constexpr unsigned minWindowPackets = 1;
    /** Congestion window after (re)boot, before any ACK or loss. */
    static constexpr unsigned initialWindowPackets = 4;
    static_assert(initialWindowPackets >= minWindowPackets);

    struct Hooks
    {
        /** Queue a copy of @p pkt for (re)injection into the mesh. */
        std::function<void(NetPacket &&pkt)> retransmit;
        /** Destination @p dst exhausted its retry budget. */
        std::function<void(NodeId dst)> failed;
        /** Window space freed (ACK progress); retry blocked senders. */
        std::function<void()> windowSpace;
    };

    RetransmitBuffer(EventQueue &eq, std::string name,
                     const ReliabilityParams &params, unsigned num_nodes,
                     Hooks hooks, stats::Group *parent_stats);

    /** Next DATA sequence number toward @p dst. */
    std::uint64_t assignSeq(NodeId dst);

    /** May another packet toward @p dst enter the network? */
    bool hasRoom(NodeId dst) const;

    /** Has @p dst been declared unreachable? */
    bool isFailed(NodeId dst) const;

    /**
     * Record an injected DATA packet (a copy is held until its
     * sequence number is cumulatively acknowledged) and arm the
     * retransmission timer.
     */
    void record(const NetPacket &pkt);

    /**
     * Cumulative ACK from @p src: everything below @p next_expected
     * is delivered. @p ecn_echo carries the receiver's latched
     * congestion mark: true halves the AIMD window (rate-limited to
     * once per rtoBase) instead of growing it.
     */
    void onAck(NodeId src, std::uint64_t next_expected,
               bool ecn_echo = false);

    /** NACK from @p src: it still waits for @p missing; everything
     *  below is implicitly acknowledged; fast-retransmit the rest. */
    void onNack(NodeId src, std::uint64_t missing);

    /** Current (backed-off) retransmission timeout toward @p dst. */
    Tick currentRto(NodeId dst) const;

    /** Packets copies currently held for @p dst. */
    std::size_t windowFill(NodeId dst) const;

    /**
     * Declare @p dst failed on external evidence (the health service
     * saw the peer die) without waiting for the retry cap. Drops the
     * window and fires the failure hook, exactly like an exhausted
     * retry budget. No-op if already failed.
     */
    void forceFail(NodeId dst);

    /**
     * Forget everything about @p dst -- window, sequence numbers,
     * backoff, failed flag -- restoring the just-booted state. Used
     * when a crashed peer rejoins (both sides restart from seq 0).
     */
    void resetChannel(NodeId dst);

    /** Effective AIMD window toward @p dst (windowPackets when
     *  congestion control is off). */
    unsigned congestionWindow(NodeId dst) const;

    /**
     * First tick at which @p dst's window became (and stayed) full,
     * or 0 if it currently has room. The kernel's admission control
     * uses a persistently full window as an overload signal.
     */
    Tick windowFullSince(NodeId dst) const;

    /** Armed retransmission deadline toward @p dst (0 = unarmed). */
    Tick armedDeadline(NodeId dst) const
    {
        return _tx.at(dst).deadline;
    }

    /** Retry count of the oldest unacked packet toward @p dst. */
    unsigned
    headRetries(NodeId dst) const
    {
        const TxState &st = _tx.at(dst);
        return st.window.empty() ? 0 : st.window.front().retries;
    }

    /** Sequence of the oldest unacked packet toward @p dst. */
    std::uint64_t
    headSeq(NodeId dst) const
    {
        const TxState &st = _tx.at(dst);
        return st.window.empty() ? 0 : st.window.front().pkt.rseq;
    }

    /** Most retransmissions deferred in one timer pass. */
    double peakPacedRetransmits() const { return _peakPacedRetx.value(); }
    /** Largest backoff exponent observed since the last stats reset. */
    double peakBackoffExp() const { return _maxBackoffExp.value(); }
    /** Largest backed-off rto (ticks) observed since the last reset. */
    double peakRto() const { return _peakRto.value(); }

    stats::Group &statGroup() { return _stats; }

  private:
    struct Unacked
    {
        NetPacket pkt;
        unsigned retries = 0;
    };

    struct TxState
    {
        std::uint64_t nextSeq = 0;
        std::deque<Unacked> window;
        unsigned backoffExp = 0;
        Tick deadline = 0;      //!< 0 = timer idle
        Tick lastNackRetx = 0;
        std::uint64_t lastNackSeq = ~std::uint64_t{0};
        bool failed = false;

        // ---- receiver-regression detection (stale NACKs) ----
        std::uint64_t staleNackSeq = ~std::uint64_t{0};
        Tick staleNackAt = 0;

        // ---- AIMD congestion window (congestion.enabled only) ----
        unsigned cwnd = 0;      //!< 0 = not yet initialized
        unsigned ackCredits = 0;    //!< clean-ACK progress toward +1
        Tick lastCwndCutAt = 0;     //!< rate-limits halving
        Tick fullSince = 0;     //!< window hit its limit at this tick
    };

    Tick rtoOf(const TxState &st) const;

    /** AIMD limit on st.window (windowPackets when congestion off). */
    unsigned windowLimit(const TxState &st) const;

    /** Multiplicative decrease (rate-limited to once per rtoBase). */
    void cutWindow(TxState &st, bool ecn);

    /** Additive increase on @p acked clean-ACKed packets. */
    void growWindow(TxState &st, unsigned acked);

    /** Track the full/non-full transition for windowFullSince(). */
    void noteFillChange(TxState &st);

    /** Jitter to add to a retransmission deadline (0 if disabled). */
    Tick jitterOf(Tick rto);

    /** Take one pacer token; false = bucket empty, defer the retx. */
    bool takePaceToken(Tick now);

    /** Earliest tick at which the pacer will own a token again. */
    Tick nextPaceTokenAt() const;

    /** Fire the windowSpace hook, flattening re-entrant invocations
     *  so a callback that refills the window cannot recurse. */
    void fireWindowSpace();

    /** (Re)schedule the timer event at the earliest live deadline. */
    void rearm();

    /** Timer fired: retransmit or fail every expired destination. */
    void timeout();

    void failChannel(NodeId dst, TxState &st);

    ReliabilityParams _params;
    Hooks _hooks;
    std::vector<TxState> _tx;
    EventFunctionWrapper _timerEvent;

    // ---- retransmit pacer (shared across destinations) ----
    std::uint64_t _paceTokens = 0;
    Tick _paceLastRefill = 0;

    Rng _jitterRng;
    bool _inWindowSpace = false;
    bool _windowSpaceAgain = false;

    stats::Group _stats;
    stats::Counter _retxTimeout{_stats, "retxTimeout",
                                "retransmissions driven by timeout"};
    stats::Counter _retxNack{_stats, "retxNack",
                             "fast retransmissions driven by NACK"};
    stats::Counter _acksProcessed{_stats, "acksProcessed",
                                  "cumulative ACKs applied"};
    stats::Counter _packetsAcked{_stats, "packetsAcked",
                                 "window entries retired by ACKs"};
    stats::Counter _channelsFailed{_stats, "channelsFailed",
                                   "destinations declared unreachable"};
    stats::Peak _maxBackoffExp{_stats, "maxBackoffExp",
                               "largest backoff exponent reached"};
    stats::Peak _peakRto{_stats, "peakRtoTicks",
                         "largest backed-off retransmission timeout"};
    stats::Counter _retxPaced{_stats, "retxPaced",
                              "retransmissions deferred by the pacer"};
    stats::Peak _peakPacedRetx{
        _stats, "peakPacedRetransmits",
        "most retransmissions deferred in one timer pass"};
    stats::Counter _ecnBackoffs{_stats, "ecnBackoffs",
                                "cwnd halvings from ECN echoes"};
    stats::Counter _lossBackoffs{
        _stats, "lossBackoffs", "cwnd halvings from timeouts and NACK losses"};
    stats::Peak _peakCwnd{_stats, "peakCwnd",
                          "largest AIMD congestion window reached"};
    stats::Counter _staleNackFails{
        _stats, "staleNackFails",
        "channels failed fast on receiver sequence regression"};
};

} // namespace shrimp

#endif // SHRIMP_NIC_RETRANSMIT_BUFFER_HH
