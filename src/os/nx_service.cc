#include "os/nx_service.hh"

#include <algorithm>

#include "os/kernel.hh"
#include "sim/logging.hh"

namespace shrimp
{

NxService::NxService(Kernel &kernel)
    : _kernel(kernel),
      _peers(kernel.numNodes()),
      _stats("nx", &kernel.statGroup())
{
    for (NodeId peer = 0; peer < _peers.size(); ++peer) {
        if (peer == kernel.nodeId())
            continue;
        PeerState &state = _peers[peer];
        for (KernelLink &page : state.data)
            page = kernel.openLink(peer, UpdateMode::DELIBERATE, "NX buffers");
        state.ctl = kernel.openLink(peer, UpdateMode::AUTO_SINGLE,
                                    "NX control pages", this);
    }
}

namespace
{

/** Is all of [buf, buf + nbytes) mapped in @p proc, and writable when
 *  @p write? */
bool
mapped(Process &proc, Addr buf, Addr nbytes, bool write)
{
    for (Addr page = pageBase(pageOf(buf)); page < buf + nbytes;
         page += PAGE_SIZE) {
        if (!proc.space().translate(page, write).ok())
            return false;
    }
    return true;
}

} // namespace

void
NxService::copyMessage(Process &proc, Addr buf, Addr nbytes,
                       const PeerState &peer, bool to_user)
{
    for (Addr done = 0; done < nbytes;) {
        Addr chunk = std::min({PAGE_SIZE - pageOffset(buf + done),
                               PAGE_SIZE - pageOffset(done), nbytes - done});
        Translation tr = proc.space().translate(buf + done, to_user);
        SHRIMP_ASSERT(tr.ok(), "NX user buffer not mapped");
        const KernelLink &page = peer.data[done / PAGE_SIZE];
        Addr kaddr = pageBase(to_user ? page.in : page.out) + pageOffset(done);
        std::vector<std::uint8_t> tmp(chunk);
        _kernel.mem().read(to_user ? kaddr : tr.paddr, tmp.data(), chunk);
        _kernel.mem().write(to_user ? tr.paddr : kaddr, tmp.data(), chunk);
        done += chunk;
    }
}

// ---------------------------------------------------------------------
// csend
// ---------------------------------------------------------------------

std::optional<Tick>
NxService::csend(ExecContext &ctx, const NxArgs &args, Tick now)
{
    // The NX/2 fast path: 222 instructions of kernel send processing.
    Tick t = now + _kernel.charge(&ctx, _kernel.costs().nxCsendFastPath);

    Process &proc = _kernel.processOf(ctx);
    if (args.nbytes == 0 || args.nbytes > maxMessageBytes ||
        args.node >= _peers.size() || args.node == _kernel.nodeId() ||
        !mapped(proc, args.buf, args.nbytes, false)) {
        ctx.regs[R0] = err::INVAL;
        return t;
    }
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
    peer.xfer = TransferState{true, &proc, args.type, args.nbytes, 0};

    // Copy user data into the kernel send buffer -- the user/kernel
    // copy the SHRIMP design eliminates.
    std::uint32_t words = (args.nbytes + 3) / 4;
    _kernel.charge(&proc.ctx, _kernel.costs().nxCopyPerWord * words);
    copyMessage(proc, args.buf, args.nbytes, peer, false);

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
    Addr src = pageBase(peer.data[xfer.page].out);

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
    _kernel.writeLinkWord(peer.ctl, ctlNbytes, xfer.nbytes);
    _kernel.writeLinkWord(peer.ctl, ctlType, xfer.type);
    _kernel.writeLinkWord(peer.ctl, ctlDoorbellSeq, seq);
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
    if (!mapped(proc, args.buf, args.nbytes, true)) {
        ctx.regs[R0] = err::INVAL;
        return t;
    }

    // A message of this type already queued?
    for (NodeId from = 0; from < _peers.size(); ++from) {
        PeerState &peer = _peers[from];
        if (peer.pending && peer.pending->type == args.type) {
            std::uint64_t work =
                deliverTo(from, proc, args.buf, args.nbytes);
            return t + _kernel.charge(&ctx, work);
        }
    }

    _kernel.blockCurrent(ctx);
    auto next = _kernel.scheduleNext(t);
    _blockedReceivers.push_back(
        BlockedReceiver{&proc, args.type, args.buf, args.nbytes});
    return next;
}

std::uint64_t
NxService::handleArrival(NodeId peer_id)
{
    PeerState &peer = _peers[peer_id];
    std::uint64_t work = 0;

    // New doorbell? (the DMA receive interrupt of the traditional
    // architecture)
    std::uint32_t seq = _kernel.readLinkWord(peer.ctl, ctlDoorbellSeq);
    if (seq != 0 && seq != peer.recvSeqSeen) {
        peer.recvSeqSeen = seq;
        work += _kernel.costs().nxInterrupt;
        PendingMessage msg;
        msg.type = _kernel.readLinkWord(peer.ctl, ctlType);
        msg.nbytes = _kernel.readLinkWord(peer.ctl, ctlNbytes);
        SHRIMP_ASSERT(!peer.pending, "NX slot protocol violated");
        peer.pending = msg;
        work += tryDeliver(peer_id);
    }

    // Credit returned for a message we sent?
    std::uint32_t credit = _kernel.readLinkWord(peer.ctl, ctlCreditSeq);
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
            BlockedReceiver receiver = *it;
            _blockedReceivers.erase(it);
            return deliverTo(from, *receiver.proc, receiver.buf,
                             receiver.nbytes);
        }
    }
    return 0;   // stays queued until someone calls crecv
}

std::uint64_t
NxService::deliverTo(NodeId from, Process &proc, Addr buf,
                     std::uint32_t nbytes)
{
    PeerState &peer = _peers[from];
    SHRIMP_ASSERT(peer.pending, "deliver with no message");
    if (peer.pending->nbytes > nbytes) {
        proc.ctx.regs[R0] = err::INVAL;
        _kernel.makeReady(proc);
        return 0;
    }
    PendingMessage msg = *peer.pending;
    peer.pending.reset();

    // Kernel -> user copy, the receive side's extra copy.
    copyMessage(proc, buf, msg.nbytes, peer, true);

    // Return the slot credit to the sender's kernel.
    _kernel.writeLinkWord(peer.ctl, ctlCreditSeq, peer.recvSeqSeen);

    proc.ctx.regs[R0] = msg.nbytes;
    _kernel.makeReady(proc);
    ++_delivered;

    return _kernel.costs().nxCopyPerWord * ((msg.nbytes + 3) / 4) +
           _kernel.costs().nxInterrupt;
}

} // namespace shrimp
