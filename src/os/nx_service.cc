#include "os/nx_service.hh"

#include "os/kernel.hh"
#include "sim/logging.hh"

namespace shrimp
{

NxService::NxService(Kernel &kernel)
    : _kernel(kernel), _peers(kernel.numNodes())
{
}

// ---------------------------------------------------------------------
// Boot wiring
// ---------------------------------------------------------------------

void
NxService::allocatePages()
{
    for (NodeId peer = 0; peer < _peers.size(); ++peer) {
        if (peer == _kernel.nodeId())
            continue;
        PeerState &state = _peers[peer];
        for (std::size_t i = 0; i < slotPages; ++i) {
            state.dataOut.push_back(_kernel.allocPinnedFrame("NX buffers"));
            PageNum in = _kernel.allocPinnedFrame("NX buffers");
            state.dataIn.push_back(in);
            NiptEntry &e = _kernel.ni().nipt().entry(in);
            e.mappedIn = true;
            e.inSources.push_back(peer);
        }
        state.ctlOut = _kernel.allocPinnedFrame("NX buffers");
        state.ctlIn = _kernel.allocPinnedFrame("NX buffers");
        NiptEntry &e = _kernel.ni().nipt().entry(state.ctlIn);
        e.mappedIn = true;
        e.interruptOnArrival = true;
        e.inSources.push_back(peer);
        _ctlFrameOwner[state.ctlIn] = peer;
    }
}

PageNum
NxService::dataInFrame(NodeId peer, std::size_t page) const
{
    return _peers.at(peer).dataIn.at(page);
}

PageNum
NxService::ctlInFrame(NodeId peer) const
{
    return _peers.at(peer).ctlIn;
}

void
NxService::wireTo(NodeId peer, const std::vector<PageNum> &data_frames,
                  PageNum ctl_frame)
{
    PeerState &state = _peers.at(peer);
    SHRIMP_ASSERT(data_frames.size() == slotPages, "bad wire");
    for (std::size_t i = 0; i < slotPages; ++i) {
        OutMapping m;
        m.mode = UpdateMode::DELIBERATE;
        m.dstNode = peer;
        m.dstPage = data_frames[i];
        _kernel.ni().nipt().entry(state.dataOut[i]).outLow = m;
    }
    OutMapping c;
    c.mode = UpdateMode::AUTO_SINGLE;
    c.dstNode = peer;
    c.dstPage = ctl_frame;
    _kernel.ni().nipt().entry(state.ctlOut).outLow = c;
}

bool
NxService::ownsFrame(PageNum frame) const
{
    return _ctlFrameOwner.count(frame) != 0;
}

// ---------------------------------------------------------------------
// Control page access
// ---------------------------------------------------------------------

void
NxService::writeCtlWord(NodeId peer, Addr offset, std::uint32_t value)
{
    PeerState &state = _peers.at(peer);
    _kernel.charge(nullptr, _kernel.costs().channelWordWrite);
    Addr paddr = pageBase(state.ctlOut) + offset;
    _kernel.bus().postWrite(paddr, &value, 4, BusMaster::CPU,
                            _kernel.curTick());
}

std::uint32_t
NxService::readCtlWord(NodeId peer, Addr offset) const
{
    const PeerState &state = _peers.at(peer);
    return static_cast<std::uint32_t>(
        _kernel.mem().readInt(pageBase(state.ctlIn) + offset, 4));
}

// ---------------------------------------------------------------------
// csend
// ---------------------------------------------------------------------

std::optional<Tick>
NxService::csend(ExecContext &ctx, const NxArgs &args, Tick now)
{
    // The NX/2 fast path: 222 instructions of kernel send processing.
    Tick t = now + _kernel.charge(&ctx, _kernel.costs().nxCsendFastPath);

    if (args.nbytes == 0 || args.nbytes > maxMessageBytes ||
        args.node >= _peers.size() || args.node == _kernel.nodeId()) {
        ctx.regs[R0] = err::INVAL;
        return t;
    }

    Process &proc = _kernel.processOf(ctx);
    PeerState &peer = _peers[args.node];

    // Admission control: refuse up front -- before the process blocks
    // -- when the destination is unhealthy or its send queue is at the
    // bound. EAGAIN-style: the caller sees WOULDBLOCK immediately
    // instead of parking on a queue that can only grow.
    if (_kernel.admission().enabled &&
        (!_kernel.sendAdmissible(args.node) ||
         peer.sendWaiters.size() >= maxQueuedSendsPerPeer)) {
        _kernel.countSendRejected();
        ctx.regs[R0] = err::WOULDBLOCK;
        return t;
    }

    _kernel.blockCurrent(ctx);
    auto next = _kernel.scheduleNext(t);

    if (!slotFree(peer)) {
        peer.sendWaiters.push_back(BlockedSender{&proc, args});
    } else {
        beginTransfer(proc, args);
    }
    return next;
}

void
NxService::beginTransfer(Process &proc, const NxArgs &args)
{
    PeerState &peer = _peers[args.node];
    SHRIMP_ASSERT(slotFree(peer), "transfer with slot busy");
    peer.sendInProgress = true;

    // Copy user data into the kernel send buffer -- the user/kernel
    // copy the SHRIMP design eliminates.
    std::uint32_t words = (args.nbytes + 3) / 4;
    _kernel.charge(&proc.ctx, _kernel.costs().nxCopyPerWord * words);
    Addr copied = 0;
    while (copied < args.nbytes) {
        Addr chunk = PAGE_SIZE - pageOffset(args.buf + copied);
        if (chunk > args.nbytes - copied)
            chunk = args.nbytes - copied;
        Translation tr =
            proc.space().translate(args.buf + copied, false);
        SHRIMP_ASSERT(tr.ok(), "csend buffer not mapped");
        std::vector<std::uint8_t> tmp(chunk);
        _kernel.mem().read(tr.paddr, tmp.data(), chunk);
        Addr dst_page = copied / PAGE_SIZE;
        _kernel.mem().write(pageBase(peer.dataOut[dst_page]) +
                                pageOffset(copied),
                            tmp.data(), chunk);
        copied += chunk;
    }

    peer.xfer = TransferState{};
    peer.xfer.active = true;
    peer.xfer.proc = &proc;
    peer.xfer.node = args.node;
    peer.xfer.type = args.type;
    peer.xfer.nbytes = args.nbytes;
    peer.xfer.page = 0;
    startNextDmaPage(args.node);
}

void
NxService::startNextDmaPage(NodeId node)
{
    PeerState &peer = _peers[node];
    TransferState &xfer = peer.xfer;
    SHRIMP_ASSERT(xfer.active, "DMA page with no transfer");

    Addr offset = Addr{xfer.page} * PAGE_SIZE;
    Addr bytes = xfer.nbytes - offset;
    if (bytes > PAGE_SIZE)
        bytes = PAGE_SIZE;
    std::uint32_t nwords =
        static_cast<std::uint32_t>((bytes + 3) / 4);
    Addr src = pageBase(peer.dataOut[xfer.page]);

    if (!_kernel.ni().dma().start(src, nwords,
                                  [this, node] { dmaCompleted(node); })) {
        // Engine claimed by a user-level deliberate transfer; retry.
        _kernel.eventQueue().scheduleFn(
            [this, node] { startNextDmaPage(node); },
            _kernel.curTick() + 2 * ONE_US, EventPriority::DEFAULT,
            "nx dma retry");
    }
}

void
NxService::dmaCompleted(NodeId node)
{
    // The "DMA send interrupt" of the traditional architecture.
    _kernel.cpu().postInterrupt([this, node](Tick now) {
        Tick t =
            now + _kernel.charge(nullptr, _kernel.costs().nxInterrupt);
        PeerState &p = _peers[node];
        if (!p.xfer.active)
            return t;
        Addr sent = Addr{p.xfer.page + 1} * PAGE_SIZE;
        if (sent < p.xfer.nbytes) {
            p.xfer.page++;
            startNextDmaPage(node);
        } else {
            finishSend(node);
        }
        return t;
    });
}

void
NxService::finishSend(NodeId node)
{
    PeerState &peer = _peers[node];
    TransferState xfer = peer.xfer;
    peer.xfer = TransferState{};

    // Ring the doorbell: nbytes and type first, the sequence last.
    std::uint32_t seq = ++peer.sendSeq;
    writeCtlWord(node, ctlNbytes, xfer.nbytes);
    writeCtlWord(node, ctlType, xfer.type);
    writeCtlWord(node, ctlDoorbellSeq, seq);
    peer.sendInProgress = false;
    ++_sent;

    xfer.proc->ctx.regs[R0] = err::OK;
    _kernel.makeReady(*xfer.proc);
}

// ---------------------------------------------------------------------
// crecv and delivery
// ---------------------------------------------------------------------

std::optional<Tick>
NxService::crecv(ExecContext &ctx, const NxArgs &args, Tick now)
{
    // The NX/2 receive fast path: 261 instructions.
    Tick t = now + _kernel.charge(&ctx, _kernel.costs().nxCrecvFastPath);

    Process &proc = _kernel.processOf(ctx);

    // A message of this type already queued?
    for (NodeId from = 0; from < _peers.size(); ++from) {
        PeerState &peer = _peers[from];
        if (peer.pending && peer.pending->type == args.type) {
            std::uint64_t work = deliverTo(from, proc, args.buf);
            return t + _kernel.charge(&ctx, work);
        }
    }

    _kernel.blockCurrent(ctx);
    auto next = _kernel.scheduleNext(t);
    _blockedReceivers.push_back(
        BlockedReceiver{&proc, args.type, args.buf});
    return next;
}

std::uint64_t
NxService::handleArrival(NodeId, PageNum frame)
{
    auto it = _ctlFrameOwner.find(frame);
    SHRIMP_ASSERT(it != _ctlFrameOwner.end(), "NX arrival on unknown "
                  "frame ", frame);
    NodeId peer_id = it->second;
    PeerState &peer = _peers[peer_id];
    std::uint64_t work = 0;

    // New doorbell? (the DMA receive interrupt of the traditional
    // architecture)
    std::uint32_t seq = readCtlWord(peer_id, ctlDoorbellSeq);
    if (seq != 0 && seq != peer.recvSeqSeen) {
        peer.recvSeqSeen = seq;
        work += _kernel.costs().nxInterrupt;
        PendingMessage msg;
        msg.from = peer_id;
        msg.type = readCtlWord(peer_id, ctlType);
        msg.nbytes = readCtlWord(peer_id, ctlNbytes);
        SHRIMP_ASSERT(!peer.pending, "NX slot protocol violated");
        peer.pending = msg;
        work += tryDeliver(peer_id);
    }

    // Credit returned for a message we sent?
    std::uint32_t credit = readCtlWord(peer_id, ctlCreditSeq);
    if (credit != peer.creditSeen) {
        peer.creditSeen = credit;
        work += _kernel.costs().nxInterrupt;
        if (!peer.sendWaiters.empty() && slotFree(peer)) {
            BlockedSender sender = std::move(peer.sendWaiters.front());
            peer.sendWaiters.pop_front();
            beginTransfer(*sender.proc, sender.args);
        }
    }
    return work;
}

std::uint64_t
NxService::tryDeliver(NodeId from)
{
    PeerState &peer = _peers[from];
    if (!peer.pending)
        return 0;
    for (auto it = _blockedReceivers.begin();
         it != _blockedReceivers.end(); ++it) {
        if (it->type == peer.pending->type) {
            Process *proc = it->proc;
            Addr buf = it->buf;
            _blockedReceivers.erase(it);
            return deliverTo(from, *proc, buf);
        }
    }
    return 0;   // stays queued until someone calls crecv
}

std::uint64_t
NxService::deliverTo(NodeId from, Process &proc, Addr buf)
{
    PeerState &peer = _peers[from];
    SHRIMP_ASSERT(peer.pending, "deliver with no message");
    PendingMessage msg = *peer.pending;
    peer.pending.reset();

    // Kernel -> user copy, the receive side's extra copy.
    Addr copied = 0;
    while (copied < msg.nbytes) {
        Addr chunk = PAGE_SIZE - pageOffset(buf + copied);
        if (chunk > msg.nbytes - copied)
            chunk = msg.nbytes - copied;
        Translation tr = proc.space().translate(buf + copied, true);
        SHRIMP_ASSERT(tr.ok(), "crecv buffer not mapped");
        std::vector<std::uint8_t> tmp(chunk);
        _kernel.mem().read(pageBase(peer.dataIn[copied / PAGE_SIZE]) +
                               pageOffset(copied),
                           tmp.data(), chunk);
        _kernel.mem().write(tr.paddr, tmp.data(), chunk);
        copied += chunk;
    }

    // Return the slot credit to the sender's kernel.
    writeCtlWord(from, ctlCreditSeq, peer.recvSeqSeen);

    proc.ctx.regs[R0] = msg.nbytes;
    _kernel.makeReady(proc);
    ++_delivered;

    return _kernel.costs().nxCopyPerWord * ((msg.nbytes + 3) / 4) +
           _kernel.costs().nxInterrupt;
}

} // namespace shrimp
