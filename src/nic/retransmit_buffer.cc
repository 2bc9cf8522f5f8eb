#include "nic/retransmit_buffer.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

RetransmitBuffer::RetransmitBuffer(EventQueue &eq, std::string name,
                                   const ReliabilityParams &params,
                                   unsigned num_nodes, Hooks hooks,
                                   stats::Group *parent_stats)
    : SimObject(eq, std::move(name)),
      _params(params),
      _hooks(std::move(hooks)),
      _tx(num_nodes),
      _timerEvent([this] { timeout(); }, "retransmit timeout"),
      _paceTokens(params.congestion.paceBucketPackets),
      _jitterRng(params.congestion.jitterSeed),
      _stats("retx", parent_stats)
{
    SHRIMP_ASSERT(params.windowPackets > 0, "empty retransmit window");
    SHRIMP_ASSERT(params.rtoBase > 0, "zero retransmission timeout");
    SHRIMP_ASSERT(params.congestion.paceBucketPackets == 0 ||
                      params.congestion.paceRefillInterval > 0,
                  "pacer enabled with a zero refill interval");
}

std::uint64_t
RetransmitBuffer::assignSeq(NodeId dst)
{
    return _tx.at(dst).nextSeq++;
}

bool
RetransmitBuffer::hasRoom(NodeId dst) const
{
    const TxState &st = _tx.at(dst);
    return !st.failed && st.window.size() < windowLimit(st);
}

unsigned
RetransmitBuffer::windowLimit(const TxState &st) const
{
    if (!_params.congestion.enabled)
        return _params.windowPackets;
    // A set cwnd never falls below minWindowPackets: cutWindow floors
    // every cut there.
    unsigned w = st.cwnd != 0 ? st.cwnd : initialWindowPackets;
    if (w > _params.windowPackets)
        w = _params.windowPackets;
    return w;
}

unsigned
RetransmitBuffer::congestionWindow(NodeId dst) const
{
    return windowLimit(_tx.at(dst));
}

Tick
RetransmitBuffer::windowFullSince(NodeId dst) const
{
    return _tx.at(dst).fullSince;
}

void
RetransmitBuffer::noteFillChange(TxState &st)
{
    bool full = st.window.size() >= windowLimit(st);
    if (full && st.fullSince == 0)
        st.fullSince = curTick();
    else if (!full)
        st.fullSince = 0;
}

void
RetransmitBuffer::cutWindow(TxState &st, bool ecn)
{
    const CongestionParams &cc = _params.congestion;
    if (!cc.enabled)
        return;
    // One multiplicative decrease per rtoBase: a burst of echoes or
    // losses within one timeout is a single congestion event.
    Tick now = curTick();
    if (st.lastCwndCutAt != 0 && now - st.lastCwndCutAt < _params.rtoBase)
        return;
    st.lastCwndCutAt = now;
    unsigned before = windowLimit(st);
    st.cwnd = before / 2 > minWindowPackets ? before / 2 : minWindowPackets;
    st.ackCredits = 0;
    if (ecn)
        ++_ecnBackoffs;
    else
        ++_lossBackoffs;
    noteFillChange(st);
}

void
RetransmitBuffer::growWindow(TxState &st, unsigned acked)
{
    const CongestionParams &cc = _params.congestion;
    if (!cc.enabled)
        return;
    if (st.cwnd == 0)
        st.cwnd = windowLimit(st);
    st.ackCredits += acked;
    // Additive increase: one packet per congestion window of clean
    // ACKs, never past the reliability window.
    while (st.cwnd < _params.windowPackets && st.ackCredits >= st.cwnd) {
        st.ackCredits -= st.cwnd;
        ++st.cwnd;
    }
    if (st.cwnd >= _params.windowPackets)
        st.ackCredits = 0;
    _peakCwnd.observe(static_cast<double>(st.cwnd));
    noteFillChange(st);
}

Tick
RetransmitBuffer::jitterOf(Tick rto)
{
    unsigned permille = _params.congestion.rtoJitterPermille;
    if (permille == 0)
        return 0;
    return _jitterRng.below(rto * permille / 1000 + 1);
}

bool
RetransmitBuffer::takePaceToken(Tick now)
{
    const CongestionParams &cc = _params.congestion;
    if (cc.paceBucketPackets == 0)
        return true;
    Tick earned = (now - _paceLastRefill) / cc.paceRefillInterval;
    if (earned > 0) {
        std::uint64_t tokens = _paceTokens + earned;
        _paceTokens = tokens < cc.paceBucketPackets
                          ? tokens
                          : cc.paceBucketPackets;
        _paceLastRefill += earned * cc.paceRefillInterval;
    }
    if (_paceTokens == 0)
        return false;
    --_paceTokens;
    return true;
}

Tick
RetransmitBuffer::nextPaceTokenAt() const
{
    return _paceLastRefill + _params.congestion.paceRefillInterval;
}

void
RetransmitBuffer::fireWindowSpace()
{
    if (!_hooks.windowSpace)
        return;
    // A callback may synchronously refill the window and trigger more
    // ACK processing; flatten the recursion so waiters are neither
    // skipped nor serviced from an unbounded call stack.
    if (_inWindowSpace) {
        _windowSpaceAgain = true;
        return;
    }
    _inWindowSpace = true;
    do {
        _windowSpaceAgain = false;
        _hooks.windowSpace();
    } while (_windowSpaceAgain);
    _inWindowSpace = false;
}

bool
RetransmitBuffer::isFailed(NodeId dst) const
{
    return _tx.at(dst).failed;
}

Tick
RetransmitBuffer::rtoOf(const TxState &st) const
{
    // Exponential backoff, saturating at rtoMax.
    Tick rto = _params.rtoBase;
    for (unsigned i = 0; i < st.backoffExp && rto < _params.rtoMax; ++i)
        rto *= 2;
    return rto < _params.rtoMax ? rto : _params.rtoMax;
}

Tick
RetransmitBuffer::currentRto(NodeId dst) const
{
    return rtoOf(_tx.at(dst));
}

std::size_t
RetransmitBuffer::windowFill(NodeId dst) const
{
    return _tx.at(dst).window.size();
}

void
RetransmitBuffer::record(const NetPacket &pkt)
{
    TxState &st = _tx.at(pkt.dstNode);
    SHRIMP_ASSERT(!st.failed, "record toward a failed destination");
    SHRIMP_ASSERT(st.window.size() < windowLimit(st),
                  "retransmit window overrun toward ", pkt.dstNode);
    st.window.push_back(Unacked{pkt, 0});
    noteFillChange(st);
    if (st.deadline == 0) {
        st.deadline = curTick() + rtoOf(st);
        rearm();
    }
}

void
RetransmitBuffer::onAck(NodeId src, std::uint64_t next_expected,
                        bool ecn_echo)
{
    TxState &st = _tx.at(src);
    if (st.failed)
        return;
    ++_acksProcessed;

    unsigned acked = 0;
    while (!st.window.empty() &&
           st.window.front().pkt.rseq < next_expected) {
        st.window.pop_front();
        ++_packetsAcked;
        ++acked;
    }

    // The receiver saw congestion (its FIFO nearly full, or a router
    // queue above threshold): shrink before loss forces it.
    if (ecn_echo)
        cutWindow(st, true);

    if (acked == 0)
        return;

    if (!ecn_echo)
        growWindow(st, acked);
    noteFillChange(st);

    // Forward progress: the path works, restart backoff and the timer.
    st.backoffExp = 0;
    st.deadline = st.window.empty() ? 0 : curTick() + rtoOf(st);
    rearm();
    fireWindowSpace();
}

void
RetransmitBuffer::onNack(NodeId src, std::uint64_t missing)
{
    TxState &st = _tx.at(src);
    if (st.failed)
        return;

    // A NACK carries a cumulative ACK for everything below the
    // missing sequence.
    onAck(src, missing);

    // A NACK for a sequence we already retired can only follow a
    // cumulative ACK that covered it, so the receiver lost its
    // position (e.g. a late crash-recovery reset raced our restarted
    // stream). A NACK that merely crossed an ACK in flight looks the
    // same -- but only once: the receiver cannot ask again for a gap
    // it has since filled. A repeated stale NACK for one sequence
    // proves the stream will never resynchronize; fail the channel
    // now instead of burning the whole retry budget against it.
    if (!st.window.empty() && missing < st.window.front().pkt.rseq) {
        Tick now = curTick();
        if (st.staleNackSeq == missing) {
            // Ignore same-tick duplicates of one NACK packet.
            if (now - st.staleNackAt >= _params.rtoBase / 2) {
                ++_staleNackFails;
                failChannel(src, st);
            }
        } else {
            st.staleNackSeq = missing;
            st.staleNackAt = now;
        }
        return;
    }

    if (st.window.empty() || st.window.front().pkt.rseq != missing)
        return;     // already retired, or not yet transmitted

    // Suppress a burst of NACKs for the same gap: the receiver emits
    // one per out-of-order arrival, one retransmission answers all.
    Tick now = curTick();
    if (st.lastNackSeq == missing &&
        now - st.lastNackRetx < _params.rtoBase) {
        return;
    }
    st.lastNackSeq = missing;
    st.lastNackRetx = now;

    // A NACK implies a drop on the path: multiplicative decrease.
    cutWindow(st, false);

    // Pacer empty: skip the fast retransmit (no retry charged); the
    // timeout path will resend once a token accrues.
    if (!takePaceToken(now)) {
        ++_retxPaced;
        st.deadline = now + rtoOf(st);
        rearm();
        return;
    }

    Unacked &head = st.window.front();
    ++head.retries;
    if (head.retries > _params.maxRetries) {
        failChannel(src, st);
        return;
    }
    ++_retxNack;
    if (auto *t = eventQueue().tracer()) {
        t->instant(now, name(), "rel", "retxNack",
                   {trace::arg("dst", static_cast<std::uint64_t>(src)),
                    trace::arg("rseq", missing),
                    trace::arg("try", head.retries)});
    }
    if (_hooks.retransmit)
        _hooks.retransmit(NetPacket{head.pkt});

    // Restart the timer; fast retransmit is progress-neutral, so the
    // current backoff level is kept.
    st.deadline = now + rtoOf(st) + jitterOf(rtoOf(st));
    rearm();
}

void
RetransmitBuffer::timeout()
{
    Tick now = curTick();
    std::uint64_t paced_this_pass = 0;
    for (NodeId dst = 0; dst < _tx.size(); ++dst) {
        TxState &st = _tx[dst];
        if (st.failed || st.deadline == 0 || st.deadline > now)
            continue;

        SHRIMP_ASSERT(!st.window.empty(), "armed timer, empty window");

        // Retry-storm suppression: with the pacer bucket empty the
        // retransmit is deferred to the next token, charging neither
        // a retry nor backoff growth -- a synchronized burst after a
        // link flap trickles out instead of slamming the mesh.
        if (!takePaceToken(now)) {
            ++_retxPaced;
            ++paced_this_pass;
            st.deadline = nextPaceTokenAt();
            continue;
        }

        Unacked &head = st.window.front();
        ++head.retries;
        if (head.retries > _params.maxRetries) {
            failChannel(dst, st);
            continue;
        }

        // Go-back-one with cumulative ACKs: retransmitting the oldest
        // unacked packet is enough to restart the pipeline; later
        // losses surface as NACKs or further timeouts.
        ++_retxTimeout;
        if (auto *t = eventQueue().tracer()) {
            t->instant(
                now, name(), "rel", "retxTimeout",
                {trace::arg("dst", static_cast<std::uint64_t>(dst)),
                 trace::arg("rseq", head.pkt.rseq),
                 trace::arg("try", head.retries)});
        }
        if (st.backoffExp < _params.backoffExpCap)
            ++st.backoffExp;
        _maxBackoffExp.observe(static_cast<double>(st.backoffExp));
        _peakRto.observe(static_cast<double>(rtoOf(st)));
        cutWindow(st, false);
        if (_hooks.retransmit)
            _hooks.retransmit(NetPacket{head.pkt});
        st.deadline = now + rtoOf(st) + jitterOf(rtoOf(st));
    }
    if (paced_this_pass > 0)
        _peakPacedRetx.observe(static_cast<double>(paced_this_pass));
    rearm();
}

void
RetransmitBuffer::forceFail(NodeId dst)
{
    TxState &st = _tx.at(dst);
    if (!st.failed)
        failChannel(dst, st);
}

void
RetransmitBuffer::resetChannel(NodeId dst)
{
    TxState &st = _tx.at(dst);
    if (auto *t = eventQueue().tracer()) {
        // The reset discards the unacked window; say how much.
        t->instant(curTick(), name(), "rel", "channelReset",
                   {trace::arg("dst", static_cast<std::uint64_t>(dst)),
                    trace::arg("unacked", static_cast<std::uint64_t>(
                                              st.window.size()))});
    }
    st = TxState{};
    rearm();
}

void
RetransmitBuffer::failChannel(NodeId dst, TxState &st)
{
    // Retry budget exhausted: degrade gracefully. Drop the window,
    // refuse future traffic toward dst, and let the NI mark the
    // affected mappings errored.
    ++_channelsFailed;
    st.failed = true;
    st.window.clear();
    st.deadline = 0;
    st.fullSince = 0;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "rel", "channelFailed",
                   {trace::arg("dst",
                               static_cast<std::uint64_t>(dst))});
    }
    rearm();
    if (_hooks.failed)
        _hooks.failed(dst);
}

void
RetransmitBuffer::rearm()
{
    Tick next = MAX_TICK;
    for (const TxState &st : _tx) {
        if (!st.failed && st.deadline != 0 && st.deadline < next)
            next = st.deadline;
    }
    if (next == MAX_TICK) {
        if (_timerEvent.scheduled())
            deschedule(_timerEvent);
        return;
    }
    reschedule(_timerEvent, next < curTick() ? curTick() : next);
}

} // namespace shrimp
