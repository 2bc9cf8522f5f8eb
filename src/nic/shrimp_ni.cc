#include "nic/shrimp_ni.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

const char *
updateModeName(UpdateMode mode)
{
    switch (mode) {
      case UpdateMode::NONE: return "none";
      case UpdateMode::AUTO_SINGLE: return "auto-single";
      case UpdateMode::AUTO_BLOCK: return "auto-block";
      case UpdateMode::DELIBERATE: return "deliberate";
    }
    return "unknown";
}

ShrimpNi::ShrimpNi(EventQueue &eq, std::string name, NodeId node,
                   const Params &params, XpressBus &bus, EisaBus &eisa,
                   MainMemory &mem, MeshBackplane &backplane)
    : SimObject(eq, std::move(name)),
      _node(node),
      _params(params),
      _bus(bus),
      _eisa(eisa),
      _mem(mem),
      _backplane(backplane),
      _router(backplane.router(node)),
      _nipt(mem.numPages()),
      _outFifo(this->name() + ".outFifo", params.outFifo),
      _inFifo(this->name() + ".inFifo", params.inFifo),
      _dma(eq, this->name() + ".dma", bus, mem,
           DeliberateDma::Hooks{
               [this](Addr paddr) { return _nipt.lookupOut(paddr); },
               [this](Addr wire) { return _outFifo.wouldFit(wire); },
               [this](NodeId dst, Addr dst_addr,
                      std::vector<std::uint8_t> &&payload) {
                   // Flush any pending merge first so all traffic to a
                   // given destination stays in program order.
                   flushMergeBuffer();
                   emitPacket(dst, dst_addr, std::move(payload),
                              curTick() + packetizeLatency);
               },
               [this] { _dmaWaitingForFifo = true; }}),
      _injectEvent(eq, [this] { tryInject(); }, "ni inject"),
      _drainEvent([this] { drainIncoming(); }, "ni drain"),
      _mergeTimerEvent(
          [this] {
              if (_merge.valid)
                  ++_mergeFlushTimeout;
              flushMergeBuffer();
          },
          "merge timeout"),
      _ackEvent([this] { flushPendingAcks(); }, "delayed ack"),
      _watchdogEvent([this] { watchdogTick(); }, "progress watchdog"),
      _stats(this->name())
{
    SHRIMP_ASSERT(cmdBase >= mem.size(), "command space overlaps DRAM");

    if (_params.reliability.enabled) {
        _rx.resize(backplane.numNodes());
        // Salt the backoff-jitter seed per node so every NI draws a
        // distinct (but still seed-reproducible) jitter sequence;
        // SplitMix64 seeding decorrelates the nearby values.
        ReliabilityParams rel = _params.reliability;
        rel.congestion.jitterSeed += node;
        _retx = std::make_unique<RetransmitBuffer>(
            eq, this->name() + ".retx", rel,
            backplane.numNodes(),
            RetransmitBuffer::Hooks{
                [this](NetPacket &&pkt) { queueControl(std::move(pkt)); },
                [this](NodeId dst) { handleChannelFailure(dst); },
                [this] { kickInject(); }},
            &_stats);
    }

    // Wire ourselves into the node and the mesh.
    bus.addSnooper(this);
    bus.addTarget(cmdBase, mem.size(), this);
    _router.setSink(this);
    _router.setInjectWaiter([this] { kickInject(); });

    // FIFO threshold plumbing.
    _outFifo.onAboveThreshold = [this] {
        _outAboveThreshold = true;
        if (onOutFifoAboveThreshold)
            onOutFifoAboveThreshold();
    };
    _outFifo.onDrained = [this] {
        if (_outAboveThreshold) {
            _outAboveThreshold = false;
            if (onOutFifoDrained)
                onOutFifoDrained();
        }
        if (_dmaWaitingForFifo) {
            _dmaWaitingForFifo = false;
            _dma.kick();
        }
    };
    _inFifo.onAboveThreshold = [this] { _accepting = false; };
    _inFifo.onDrained = [this] {
        if (!_accepting) {
            _accepting = true;
            _router.sinkReadyAgain();
        }
    };

    if (_params.watchdogPeriod > 0)
        schedule(_watchdogEvent, _params.watchdogPeriod);
}

// ---------------------------------------------------------------------
// Outgoing path: snooped automatic updates
// ---------------------------------------------------------------------

void
ShrimpNi::snoopWrite(Addr paddr, const void *buf, Addr len,
                     BusMaster master)
{
    // Only processor stores trigger automatic updates. Incoming DMA
    // also appears on the memory bus, but forwarding it would echo
    // bidirectional mappings back and forth forever; the hardware's
    // outgoing datapath captures CPU cycles only.
    if (_crashed || master != BusMaster::CPU || !isDram(paddr))
        return;

    OutLookup lookup = _nipt.lookupOut(paddr);
    if (!lookup.mapped)
        return;

    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "ni", "storeSnooped",
                   {trace::arg("paddr", paddr), trace::arg("len", len)});
    }

    switch (lookup.mode) {
      case UpdateMode::AUTO_SINGLE:
        handleAutoSingle(lookup, buf, len);
        break;
      case UpdateMode::AUTO_BLOCK:
        handleAutoBlock(lookup, paddr, buf, len);
        break;
      case UpdateMode::DELIBERATE:
      case UpdateMode::NONE:
        break;      // data moves only via an explicit send
    }
}

void
ShrimpNi::handleAutoSingle(const OutLookup &lookup, const void *buf,
                           Addr len)
{
    // Keep wire order equal to store order even when single-write and
    // blocked-write pages interleave toward the same destination.
    flushMergeBuffer();

    std::vector<std::uint8_t> payload(static_cast<std::size_t>(len));
    std::memcpy(payload.data(), buf, payload.size());
    emitPacket(lookup.dstNode, lookup.dstAddr, std::move(payload),
               curTick() + packetizeLatency);
}

void
ShrimpNi::handleAutoBlock(const OutLookup &lookup, Addr paddr,
                          const void *buf, Addr len)
{
    Tick now = curTick();

    bool mergeable =
        _merge.valid && _merge.dstNode == lookup.dstNode &&
        paddr == _merge.srcNext &&
        pageOf(paddr) == pageOf(_merge.srcNext - 1) &&
        _merge.data.size() + len <= maxPayloadBytes &&
        now - _merge.lastWrite <= _params.mergeTimeout;

    if (!mergeable)
        flushMergeBuffer();

    if (!_merge.valid) {
        _merge.valid = true;
        _merge.dstNode = lookup.dstNode;
        _merge.dstStart = lookup.dstAddr;
        _merge.srcNext = paddr;
        _merge.data.clear();
        _merge.lastWrite = now;
    } else {
        ++_mergedWrites;
    }

    const auto *bytes = static_cast<const std::uint8_t *>(buf);
    _merge.data.insert(_merge.data.end(), bytes, bytes + len);
    _merge.srcNext += len;
    _merge.lastWrite = now;

    if (_merge.data.size() >= maxPayloadBytes) {
        flushMergeBuffer();
    } else {
        // (Re)arm the merge window timer.
        reschedule(_mergeTimerEvent, now + _params.mergeTimeout);
    }
}

void
ShrimpNi::flushMergeBuffer()
{
    if (_mergeTimerEvent.scheduled())
        deschedule(_mergeTimerEvent);
    if (!_merge.valid)
        return;

    _merge.valid = false;
    emitPacket(_merge.dstNode, _merge.dstStart, std::move(_merge.data),
               curTick() + packetizeLatency);
    _merge.data = {};
}

void
ShrimpNi::emitPacket(NodeId dst, Addr dst_addr,
                     std::vector<std::uint8_t> &&payload, Tick ready)
{
    NetPacket pkt;
    pkt.srcNode = _node;
    pkt.dstNode = dst;
    pkt.dstX = static_cast<std::uint16_t>(_backplane.xOf(dst));
    pkt.dstY = static_cast<std::uint16_t>(_backplane.yOf(dst));
    pkt.dstPaddr = dst_addr;
    pkt.payload = std::move(payload);
    if (_params.reliability.enabled) {
        if (_retx->isFailed(dst)) {
            // Graceful degradation: the channel is dead and the
            // mappings are errored; late traffic is discarded.
            ++_relDroppedFailed;
            return;
        }
        pkt.reliable = true;
        pkt.kind = NetPacket::Kind::DATA;
    }
    // Overload: a store burst can outrun the injection engine and
    // fill the outgoing FIFO. Drop here -- before a sequence number
    // is burned, so the reliability stream stays gap-free -- instead
    // of tripping the FIFO's overrun assertion. The threshold
    // interrupt has already stalled well-behaved senders; what
    // arrives past capacity is load the node must shed.
    if (!_outFifo.wouldFit(pkt.wireBytes())) {
        ++_sendOverflowDrops;
        if (auto *t = eventQueue().tracer()) {
            t->instant(curTick(), name(), "ni", "sendOverflowDrop",
                       {trace::arg("dst", static_cast<std::uint64_t>(dst)),
                        trace::arg("bytes", static_cast<std::uint64_t>(
                                                pkt.payload.size()))});
        }
        return;
    }
    // Reliable DATA is NOT stamped with (rseq, srcEpoch) here: the
    // packet can sit in the outgoing FIFO across a channel reset or an
    // incarnation bump, and a pre-assigned stamp would enter the fresh
    // window as an orphan of the previous life -- a sequence the
    // receiver (resynchronized to expect 0) can never ACK. tryInject()
    // stamps and seals it at the moment the packet actually enters the
    // retransmit window; only unreliable packets are sealed here.
    if (!pkt.reliable)
        pkt.sealCrc();
    pkt.injectedAt = curTick();

    if (auto *t = eventQueue().tracer()) {
        pkt.traceId = t->newFlowId();
        t->flowBegin(
            curTick(), name(), "packet", "lifetime", pkt.traceId,
            {trace::arg("dst", static_cast<std::uint64_t>(dst)),
             trace::arg("paddr", dst_addr),
             trace::arg("bytes",
                        static_cast<std::uint64_t>(pkt.payload.size()))});
        // The packetize engine hands the sealed packet to the
        // Outgoing FIFO once its latency elapses.
        t->flowStep(ready, name(), "packet", "packetized", pkt.traceId,
                    {});
    }

    _bytesSent += pkt.payload.size();
    _outFifo.push(std::move(pkt), ready);
    kickInject();
}

void
ShrimpNi::kickInject()
{
    // With nothing queued, tryInject() returns at once. Only
    // queueControl() and emitPacket() queue a packet, and both kick.
    // A crashed NI returns at once too, but a restart ends that
    // without a kick, so a crash alone does not count as idle.
    _injectEvent.request(curTick(), _ctrl.empty() && _outFifo.empty());
}

void
ShrimpNi::tryInject()
{
    if (_crashed)
        return;

    Tick now = curTick();

    // Control traffic (ACK/NACK/retransmissions) jumps the outgoing
    // FIFO: ACKs unblock the remote sender's window and
    // retransmissions close delivery gaps; both are latency-critical.
    if (!_ctrl.empty()) {
        if (_nextInjectOk > now) {
            _injectEvent.reschedule(_nextInjectOk);
            return;
        }
        if (!_router.injectReady())
            return;     // inject waiter will kick us

        NetPacket pkt = std::move(_ctrl.front());
        _ctrl.pop_front();
        Tick ser = _router.serializationTime(pkt);
        _nextInjectOk = now + injectOverhead + ser;
        if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
            // A control-queue packet with a flow id is a
            // retransmission of a traced DATA packet. The original
            // flow may already have ended (lost in the fabric, or a
            // spurious timeout after delivery), so a retransmission
            // re-opens the flow rather than stepping it.
            t->flowBegin(now, name(), "packet", "retransmitInject",
                         pkt.traceId, {trace::arg("rseq", pkt.rseq)});
        }
        _router.inject(std::move(pkt));
        noteProgress();

        if (!_ctrl.empty() || !_outFifo.empty())
            _injectEvent.reschedule(_nextInjectOk);
        return;
    }

    if (_outFifo.empty())
        return;

    const PacketFifo::Item &head = _outFifo.front();
    Tick ready = head.ready > _nextInjectOk ? head.ready : _nextInjectOk;
    if (ready > now) {
        _injectEvent.reschedule(ready);
        return;
    }

    if (!_router.injectReady())
        return;     // inject waiter will kick us

    bool track = _params.reliability.enabled && head.pkt.reliable &&
                 head.pkt.kind == NetPacket::Kind::DATA;
    if (track) {
        NodeId dst = head.pkt.dstNode;
        if (_retx->isFailed(dst)) {
            // The channel died while this packet sat in the FIFO.
            NetPacket dead = _outFifo.pop();
            ++_relDroppedFailed;
            if (auto *t = eventQueue().tracer(); t && dead.traceId) {
                t->flowEnd(now, name(), "packet", "dropped",
                           dead.traceId,
                           {trace::arg("reason", "failedChannel")});
            }
            if (!_outFifo.empty())
                _injectEvent.reschedule(now);
            return;
        }
        if (!_retx->hasRoom(dst))
            return;     // the windowSpace hook will kick us on ACK
    }

    NetPacket pkt = _outFifo.pop();
    Tick ser = _router.serializationTime(pkt);
    _nextInjectOk = now + injectOverhead + ser;
    ++_pktsSent;
    if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
        t->flowStep(now, name(), "packet", "inject", pkt.traceId,
                    {trace::arg("wireBytes", pkt.wireBytes())});
    }
    if (track) {
        // Stamp the reliability header at the instant the packet joins
        // the window, so sequence numbering and the channel epoch are
        // always those of the stream it actually travels in.
        pkt.rseq = _retx->assignSeq(pkt.dstNode);
        pkt.srcEpoch = _chanEpoch;
        pkt.sealCrc();
        _retx->record(pkt);
    }
    if (_corruptNext) {
        // Test hook: corrupt "on the wire", after the retransmit
        // buffer has recorded its (clean) copy.
        _corruptNext = false;
        if (!pkt.payload.empty())
            pkt.payload[0] ^= 0x01;     // CRC now mismatches
        else
            pkt.crc ^= 0x0001;
    }
    _router.inject(std::move(pkt));
    noteProgress();

    if (!_outFifo.empty())
        _injectEvent.reschedule(_nextInjectOk);
}

// ---------------------------------------------------------------------
// Progress watchdog
// ---------------------------------------------------------------------

void
ShrimpNi::noteProgress()
{
    _lastProgressAt = curTick();
    _stalled = false;
}

void
ShrimpNi::watchdogTick()
{
    Tick period = _params.watchdogPeriod;
    if (period == 0)
        return;
    bool pending = !_crashed && (!_ctrl.empty() || !_outFifo.empty() ||
                                 !_inFifo.empty());
    if (!pending) {
        // No queued work means no stall by definition; also refresh
        // the progress clock so a backlog arriving just before the
        // next tick gets a full period before being flagged.
        noteProgress();
    } else if (curTick() - _lastProgressAt >= period) {
        if (!_stalled) {
            _stalled = true;
            ++_watchdogStalls;
            SHRIMP_WARN("watchdog: node ", _node,
                        " made no forward progress for ", period,
                        " ticks with queued work");
            if (auto *t = eventQueue().tracer()) {
                t->instant(curTick(), name(), "ni", "watchdogStall",
                           {trace::arg("idleTicks",
                                       curTick() - _lastProgressAt)});
            }
        }
        // Recovery: kick both engines in case a lost wakeup (rather
        // than genuine backpressure) wedged the pipeline.
        kickInject();
        if (!_draining && !_inFifo.empty() && !_drainEvent.scheduled())
            reschedule(_drainEvent, curTick());
    }
    schedule(_watchdogEvent, curTick() + period);
}

// ---------------------------------------------------------------------
// Command space (BusTarget)
// ---------------------------------------------------------------------

std::uint64_t
ShrimpNi::busRead(Addr paddr, unsigned size)
{
    (void)size;
    if (_crashed)
        return 0;
    Addr rel = paddr - cmdBase;
    Addr off = pageOffset(rel);
    if (off >= ctrlRegionOffset)
        return 0;
    // A mapping errored by the reliability layer reports the failure
    // to user level through its command page.
    const NiptEntry &e = _nipt.entry(pageOf(rel));
    if (e.outLow.error || e.outHigh.error)
        return statusMapError;
    // Status of the DMA engine, relative to the corresponding source
    // physical address.
    return _dma.statusRead(rel);
}

void
ShrimpNi::busWrite(Addr paddr, const void *buf, Addr len)
{
    if (_crashed)
        return;
    Addr rel = paddr - cmdBase;
    Addr off = pageOffset(rel);
    PageNum page = pageOf(rel);

    std::uint64_t value = 0;
    std::memcpy(&value, buf, len < 8 ? len : 8);

    if (off == ctrlModeOffset) {
        NiptEntry &e = _nipt.entry(page);
        UpdateMode mode;
        switch (static_cast<ModeCommand>(value)) {
          case ModeCommand::AUTO_SINGLE:
            mode = UpdateMode::AUTO_SINGLE;
            break;
          case ModeCommand::AUTO_BLOCK:
            mode = UpdateMode::AUTO_BLOCK;
            break;
          case ModeCommand::DELIBERATE:
            mode = UpdateMode::DELIBERATE;
            break;
          default:
            return;     // unknown command; hardware ignores
        }
        // Mode-switch commands apply to existing mappings only; the
        // mapping itself (destination, protection) is kernel business.
        if (e.outLow.valid())
            e.outLow.mode = mode;
        if (e.outHigh.valid())
            e.outHigh.mode = mode;
        return;
    }

    if (off == ctrlIntrOffset) {
        _nipt.entry(page).interruptOnArrival = value != 0;
        return;
    }

    // Deliberate-update start: value is the word count, the offset is
    // the transfer's base offset within the source page.
    auto nwords = static_cast<std::uint32_t>(value);
    if (nwords == 0 ||
        off + Addr{nwords} * DeliberateDma::wordBytes > PAGE_SIZE) {
        ++_ignoredStarts;
        return;
    }
    if (!_dma.start(rel, nwords))
        ++_ignoredStarts;
}

// ---------------------------------------------------------------------
// Incoming path
// ---------------------------------------------------------------------

void
ShrimpNi::sinkDeliver(NetPacket &&pkt)
{
    if (_crashed) {
        // Consume-and-discard: a dead node must not exert backpressure
        // into the mesh, or one crash wedges every route through it.
        ++_crashDrops;
        if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
            t->flowEnd(curTick(), name(), "packet", "dropped",
                       pkt.traceId, {trace::arg("reason", "crashed")});
        }
        return;
    }

    // Verify the absolute mesh coordinates and the CRC (Section 3.1).
    bool coords_ok = pkt.dstX == _backplane.xOf(_node) &&
                     pkt.dstY == _backplane.yOf(_node);
    if (!coords_ok || !pkt.crcOk()) {
        ++_dropsCrc;
        if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
            t->flowEnd(curTick(), name(), "packet", "dropped",
                       pkt.traceId, {trace::arg("reason", "crc")});
        }
        // Reliability: ask for the retransmission immediately instead
        // of waiting out the sender's timeout. The corruption may have
        // hit any field, but our fault model only touches payload/CRC
        // bits, and a NACK toward a node that never sent is harmless
        // (no window state matches).
        if (_params.reliability.enabled && pkt.reliable && coords_ok &&
            pkt.kind == NetPacket::Kind::DATA &&
            pkt.srcNode < _rx.size()) {
            sendNack(pkt.srcNode);
        }
        return;
    }

    // Epoch gate (partition fencing): a reliable packet stamped from
    // an older life of its sender is a relic of a healed partition or
    // a pre-restart stream; fence it before it can touch channel or
    // memory state. A newer stamp means the sender started a new life
    // and its stream restarts from sequence 0, so resynchronize our
    // receive state for that source.
    if (pkt.reliable && pkt.srcEpoch != 0 && pkt.srcNode < _rx.size()) {
        RxState &rx = _rx[pkt.srcNode];
        if (rx.epoch != 0 && pkt.srcEpoch < rx.epoch) {
            ++_staleEpochDrops;
            if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
                t->flowEnd(curTick(), name(), "packet", "dropped",
                           pkt.traceId,
                           {trace::arg("reason", "staleEpoch")});
            }
            return;
        }
        if (pkt.srcEpoch > rx.epoch) {
            rx = RxState{};
            rx.epoch = pkt.srcEpoch;
        }
    }

    // Liveness keepalives feed the health service directly, outside
    // the reliable sequence space.
    if (pkt.reliable && pkt.kind == NetPacket::Kind::HEARTBEAT) {
        ++_heartbeatsForwarded;
        if (onHeartbeat)
            onHeartbeat(pkt.srcNode, pkt.rseq);
        return;
    }

    // Reliability control plane: ACK/NACK packets feed the retransmit
    // buffer and never touch the incoming FIFO or memory.
    if (pkt.reliable && pkt.kind != NetPacket::Kind::DATA) {
        if (!_params.reliability.enabled)
            return;     // mixed configuration; nothing to update
        if (auto *t = eventQueue().tracer()) {
            t->instant(
                curTick(), name(), "rel",
                pkt.kind == NetPacket::Kind::ACK ? "ackRecv"
                                                 : "nackRecv",
                {trace::arg("src",
                            static_cast<std::uint64_t>(pkt.srcNode)),
                 trace::arg("rseq", pkt.rseq)});
        }
        if (pkt.kind == NetPacket::Kind::ACK) {
            ++_relAcksRcvd;
            _retx->onAck(pkt.srcNode, pkt.rseq, pkt.congestion);
        } else {
            ++_relNacksRcvd;
            _retx->onNack(pkt.srcNode, pkt.rseq);
        }
        return;
    }

    if (_params.reliability.enabled && pkt.reliable) {
        receiveReliableData(std::move(pkt));
        return;
    }

    if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
        t->flowStep(curTick(), name(), "packet", "inFifoEnqueue",
                    pkt.traceId, {});
    }
    _inFifo.push(std::move(pkt), curTick());
    if (!_draining && !_drainEvent.scheduled())
        reschedule(_drainEvent, curTick());
}

// ---------------------------------------------------------------------
// Reliability layer: receiver sequencing + ACK/NACK generation
// ---------------------------------------------------------------------

void
ShrimpNi::receiveReliableData(NetPacket &&pkt)
{
    NodeId src = pkt.srcNode;
    SHRIMP_ASSERT(src < _rx.size(), "reliable packet from unknown node ",
                  src);
    RxState &rx = _rx[src];

    if (pkt.rseq < rx.expected) {
        // Already delivered: a duplicated link or a retransmission
        // that crossed our ACK. Suppress, and re-ACK immediately in
        // case the ACK was the casualty.
        ++_relDupsSuppressed;
        if (auto *t = eventQueue().tracer()) {
            t->instant(curTick(), name(), "rel", "dupSuppressed",
                       {trace::arg("src",
                                   static_cast<std::uint64_t>(src)),
                        trace::arg("rseq", pkt.rseq)});
        }
        sendAckNow(src);
        return;
    }

    if (pkt.rseq == rx.expected) {
        acceptInOrder(std::move(pkt));
        scheduleAck(src);
        return;
    }

    // Sequence gap: hold the packet for in-order delivery and request
    // the missing one.
    if (rx.ooo.size() < reorderBufferPackets &&
        rx.ooo.find(pkt.rseq) == rx.ooo.end()) {
        rx.ooo.emplace(pkt.rseq, std::move(pkt));
    } else {
        ++_relOooDrops;     // retransmission will resupply it
    }
    sendNack(src);
}

void
ShrimpNi::acceptInOrder(NetPacket &&pkt)
{
    NodeId src = pkt.srcNode;
    RxState &rx = _rx[src];

    // ECN: latch congestion seen in flight (router queue over its
    // threshold) or right here (our incoming FIFO nearly full); the
    // next ACK toward src echoes it so the sender backs off before
    // packets have to be dropped.
    if (pkt.congestion || !_inFifo.belowHighThreshold()) {
        if (!rx.ecnPending)
            ++_ecnMarksSeen;
        rx.ecnPending = true;
    }

    trace::Tracer *t = eventQueue().tracer();
    if (t && pkt.traceId) {
        t->flowStep(curTick(), name(), "packet", "inFifoEnqueue",
                    pkt.traceId, {});
    }
    _inFifo.push(std::move(pkt), curTick());
    ++rx.expected;
    ++rx.unacked;

    // The gap closed: drain every now-consecutive held packet, FIFO
    // space permitting (leftovers are resupplied by retransmission).
    for (auto it = rx.ooo.find(rx.expected);
         it != rx.ooo.end() && _inFifo.wouldFit(it->second.wireBytes());
         it = rx.ooo.find(rx.expected)) {
        ++_relReorderFixes;
        if (t && it->second.traceId) {
            t->flowStep(curTick(), name(), "packet", "inFifoEnqueue",
                        it->second.traceId, {});
        }
        _inFifo.push(std::move(it->second), curTick());
        rx.ooo.erase(it);
        ++rx.expected;
        ++rx.unacked;
    }

    if (!_draining && !_drainEvent.scheduled())
        reschedule(_drainEvent, curTick());
}

NetPacket
ShrimpNi::makeControl(NetPacket::Kind kind, NodeId dst,
                      std::uint64_t rseq)
{
    NetPacket pkt;
    pkt.srcNode = _node;
    pkt.dstNode = dst;
    pkt.dstX = static_cast<std::uint16_t>(_backplane.xOf(dst));
    pkt.dstY = static_cast<std::uint16_t>(_backplane.yOf(dst));
    pkt.reliable = true;
    pkt.kind = kind;
    pkt.rseq = rseq;
    pkt.srcEpoch = _chanEpoch;
    pkt.sealCrc();
    pkt.injectedAt = curTick();
    return pkt;
}

void
ShrimpNi::queueControl(NetPacket &&pkt)
{
    _ctrl.push_back(std::move(pkt));
    kickInject();
}

void
ShrimpNi::scheduleAck(NodeId src)
{
    RxState &rx = _rx[src];
    if (rx.unacked >= ackEvery) {
        sendAckNow(src);
        return;
    }
    rx.ackPending = true;
    if (!_ackEvent.scheduled())
        schedule(_ackEvent, curTick() + ackDelay);
}

void
ShrimpNi::sendAckNow(NodeId src)
{
    RxState &rx = _rx[src];
    rx.ackPending = false;
    rx.unacked = 0;
    ++_relAcksSent;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "rel", "ackSend",
                   {trace::arg("dst", static_cast<std::uint64_t>(src)),
                    trace::arg("rseq", rx.expected)});
    }
    NetPacket ack = makeControl(NetPacket::Kind::ACK, src, rx.expected);
    if (rx.ecnPending) {
        // The congestion bit mutates per hop and is not CRC'd, so
        // setting it after sealCrc is wire-legal.
        ack.congestion = true;
        rx.ecnPending = false;
        ++_ecnEchoesSent;
    }
    queueControl(std::move(ack));
}

void
ShrimpNi::sendNack(NodeId src)
{
    RxState &rx = _rx[src];
    Tick now = curTick();
    // One NACK per gap per delayed-ACK window; every out-of-order
    // arrival would otherwise emit one.
    if (rx.lastNackSeq == rx.expected && now - rx.lastNackAt < ackDelay)
        return;
    rx.lastNackSeq = rx.expected;
    rx.lastNackAt = now;
    ++_relNacksSent;
    if (auto *t = eventQueue().tracer()) {
        t->instant(now, name(), "rel", "nackSend",
                   {trace::arg("dst", static_cast<std::uint64_t>(src)),
                    trace::arg("rseq", rx.expected)});
    }
    queueControl(makeControl(NetPacket::Kind::NACK, src, rx.expected));
}

void
ShrimpNi::flushPendingAcks()
{
    for (NodeId src = 0; src < _rx.size(); ++src) {
        if (_rx[src].ackPending)
            sendAckNow(src);
    }
}

unsigned
ShrimpNi::markMappingsToward(NodeId dst, bool error)
{
    unsigned flipped = 0;
    for (PageNum page = 0; page < _nipt.numPages(); ++page) {
        NiptEntry &e = _nipt.entry(page);
        for (OutMapping *half : {&e.outLow, &e.outHigh}) {
            if (half->valid() && half->error != error &&
                half->dstNode == dst) {
                half->error = error;
                ++flipped;
            }
        }
    }
    return flipped;
}

void
ShrimpNi::handleChannelFailure(NodeId dst)
{
    // Mark every outgoing mapping half toward dst errored: outgoing
    // lookups stop matching (stores fall silent instead of feeding a
    // dead window) and command-page status reads report the failure.
    unsigned halves = markMappingsToward(dst, true);
    _relMappingsErrored += halves;
    SHRIMP_WARN("reliability: node ", _node, " -> ", dst,
                " unreachable; ", halves, " mapping halves errored");
    // An in-flight deliberate transfer whose destination just errored
    // would find its mapping gone at the next chunk anyway; fail it
    // now so the command-page status flips without a polling delay.
    if (_dma.busy()) {
        OutLookup cur = _nipt.lookupOut(_dma.currentBase());
        if (!cur.mapped || cur.dstNode == dst)
            _dma.abort("peerDead");
    }
    if (onMappingError)
        onMappingError(dst);
    // Queued FIFO traffic toward dst is discarded lazily in
    // tryInject(); make sure it gets the chance.
    kickInject();
}

void
ShrimpNi::sendHeartbeat(NodeId dst, std::uint64_t stamp)
{
    if (_crashed)
        return;
    queueControl(makeControl(NetPacket::Kind::HEARTBEAT, dst, stamp));
}

void
ShrimpNi::startNewEpoch(std::uint32_t epoch)
{
    if (epoch == _chanEpoch)
        return;
    _chanEpoch = epoch;
    // Restart every outgoing stream at seq 0: receivers resynchronize
    // when they see the higher srcEpoch, so nothing from the previous
    // life can interleave with the new streams.
    for (NodeId peer = 0; peer < _rx.size(); ++peer) {
        if (peer != _node)
            resetChannel(peer);
    }
}

void
ShrimpNi::declarePeerDead(NodeId dst)
{
    // Fires handleChannelFailure through the failure hook unless the
    // retry cap got there first.
    _retx->forceFail(dst);
}

void
ShrimpNi::resetChannel(NodeId peer)
{
    _retx->resetChannel(peer);
    // Receive state is deliberately left alone: resynchronization is
    // the epoch gate's job (sinkDeliver), driven by the srcEpoch of
    // arriving packets. The data plane often resynchronizes to a
    // peer's new life before the health stamp propagates; zeroing
    // `expected` here would clobber such a stream mid-flight, and the
    // receiver would then NACK for sequences the sender has already
    // retired -- a wedge only a full retry-budget death can clear.
}

void
ShrimpNi::resetAllChannels()
{
    // Unlike resetChannel(), this wipes the receive side too: the
    // chip's stream state is simply gone. A fresh RxState (epoch 0) is
    // correct, since the first packet carrying any srcEpoch > 0
    // resynchronizes it. _rx is empty when reliability is off.
    for (NodeId peer = 0; peer < _rx.size(); ++peer) {
        resetChannel(peer);
        _rx[peer] = RxState{};
    }
}

void
ShrimpNi::setCrashed(bool crashed)
{
    if (_crashed == crashed)
        return;
    _crashed = crashed;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "ni",
                   crashed ? "niCrash" : "niRestart", {});
    }
    if (crashed) {
        // Power-fail: everything inside the chip is lost. The mesh
        // keeps ejecting into us (sinkDeliver discards), so routers
        // never back up behind a dead node.
        ++_epoch;           // orphan any in-flight drain completion
        _draining = false;
        // Drop every retransmit window/deadline: a dead node must not
        // keep its timer alive queueing retransmissions nobody sends.
        resetAllChannels();
        _ctrl.clear();
        _outFifo.clear();
        _inFifo.clear();
        _merge.valid = false;
        _merge.data.clear();
        _dma.abort("crash");
        _dmaWaitingForFifo = false;
        _outAboveThreshold = false;
        _accepting = true;
        if (_mergeTimerEvent.scheduled())
            deschedule(_mergeTimerEvent);
        if (_ackEvent.scheduled())
            deschedule(_ackEvent);
        _injectEvent.cancel();
        if (_drainEvent.scheduled())
            deschedule(_drainEvent);
        return;
    }
    // Restart: a freshly booted NI. All reliability channels restart
    // from sequence 0 in both directions (full two-sided wipe, like
    // the crash path); peers resynchronize when our restarted health
    // service bumps the incarnation and new-epoch packets arrive.
    resetAllChannels();
    noteProgress();     // a reboot is a fresh watchdog epoch
    _router.sinkReadyAgain();
}

void
ShrimpNi::drainIncoming()
{
    if (_draining || _inFifo.empty())
        return;

    Tick now = curTick();

    // NIPT check at the head of the FIFO (Section 4): drop packets for
    // pages that are not mapped in.
    {
        const PacketFifo::Item &head = _inFifo.front();
        if (!_nipt.mappedIn(pageOf(head.pkt.dstPaddr))) {
            NetPacket dropped = _inFifo.pop();
            ++_dropsUnmapped;
            if (auto *t = eventQueue().tracer(); t && dropped.traceId) {
                t->flowEnd(now, name(), "packet", "dropped",
                           dropped.traceId,
                           {trace::arg("reason", "unmapped")});
            }
            if (!_inFifo.empty())
                reschedule(_drainEvent, now);
            return;
        }
    }

    // Coalesce a run of contiguous, mapped-in packets into one DMA
    // burst so back-to-back page transfers approach the EISA burst
    // bandwidth (33 MB/s) instead of paying setup per packet.
    std::size_t count = 0;
    Addr bytes = 0;
    Addr next_addr = _inFifo.front().pkt.dstPaddr;
    while (count < _inFifo.packets()) {
        const PacketFifo::Item &item = _inFifo.at(count);
        if (item.ready > now)
            break;
        if (item.pkt.dstPaddr != next_addr)
            break;
        if (!_nipt.mappedIn(pageOf(item.pkt.dstPaddr)))
            break;
        if (bytes + item.pkt.payload.size() > maxDrainBurstBytes && count > 0)
            break;
        bytes += item.pkt.payload.size();
        next_addr += item.pkt.payload.size();
        ++count;
    }
    if (count == 0) {
        reschedule(_drainEvent, _inFifo.front().ready);
        return;
    }

    Tick done;
    if (_params.nextGenDatapath) {
        XpressBus::Grant g = _bus.acquire(now, bytes);
        done = g.end + MainMemory::accessLatency;
    } else {
        EisaBus::Grant g = _eisa.acquire(now, bytes);
        // The EISA bridge's writes also occupy the memory bus.
        _bus.acquire(g.start, bytes);
        done = g.end;
    }

    _draining = true;
    if (auto *t = eventQueue().tracer()) {
        t->complete(now, done, name(), "dma", "dmaBurst",
                    {trace::arg("bytes", bytes),
                     trace::arg("packets",
                                static_cast<std::uint64_t>(count)),
                     trace::arg("path", _params.nextGenDatapath
                                            ? "xpress"
                                            : "eisa")});
    }
    _drainPackets = count;
    eventQueue().scheduleFn(
        [this, epoch = _epoch]() {
            if (epoch != _epoch)
                return;     // the node crashed mid-burst
            _draining = false;
            for (std::size_t i = 0; i < _drainPackets; ++i)
                commitArrival(_inFifo.pop());
            if (!_inFifo.empty() && !_drainEvent.scheduled())
                reschedule(_drainEvent, curTick());
        },
        done, EventPriority::DEFAULT, "incoming drain complete");
}

void
ShrimpNi::commitArrival(NetPacket &&pkt)
{
    // Functional write into main memory; snooping caches invalidate.
    _bus.functionalWrite(pkt.dstPaddr, pkt.payload.data(),
                         pkt.payload.size(), BusMaster::EISA_DMA);
    ++_pktsDelivered;
    _bytesDelivered += pkt.payload.size();
    noteProgress();
    _deliveryLatency.sample(curTick() - pkt.injectedAt);
    if (auto *t = eventQueue().tracer(); t && pkt.traceId) {
        t->flowStep(curTick(), name(), "packet", "commit", pkt.traceId,
                    {trace::arg("paddr", pkt.dstPaddr)});
        t->flowEnd(curTick(), name(), "packet", "lifetime", pkt.traceId,
                   {trace::arg("latency", curTick() - pkt.injectedAt)});
    }

    PageNum page = pageOf(pkt.dstPaddr);
    if (_nipt.entry(page).interruptOnArrival && onArrival) {
        ++_arrivalInterrupts;
        onArrival(page, pkt.dstPaddr);
    }
    if (onDelivered)
        onDelivered(pkt, curTick());
}

} // namespace shrimp
