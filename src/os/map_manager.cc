#include "os/map_manager.hh"

#include <algorithm>
#include <memory>

#include "os/dsm.hh"
#include "os/kernel.hh"
#include "sim/logging.hh"

namespace shrimp
{

MapManager::MapManager(Kernel &kernel)
    : _kernel(kernel),
      _channels(kernel.numNodes()),
      _peers(kernel.numNodes()),
      _stats("map", &kernel.statGroup())
{
    for (NodeId peer = 0; peer < _channels.size(); ++peer) {
        if (peer != kernel.nodeId()) {
            _channels[peer] = kernel.openLink(peer, UpdateMode::AUTO_SINGLE,
                                              "kernel channels", this);
        }
    }
}

// ---------------------------------------------------------------------
// RPC engine
// ---------------------------------------------------------------------

void
MapManager::sendRpc(NodeId peer, KernelRpc rpc)
{
    SHRIMP_ASSERT(peer < _peers.size() && peer != _kernel.nodeId(),
                  "bad RPC peer ", peer);
    PeerState &state = _peers[peer];
    state.queue.push_back(std::move(rpc));
    if (!state.inFlight)
        transmit(peer, state);
}

void
MapManager::transmit(NodeId peer, PeerState &state)
{
    SHRIMP_ASSERT(!state.inFlight && !state.queue.empty(),
                  "bad transmit state");
    state.current = std::move(state.queue.front());
    state.queue.pop_front();
    state.inFlight = true;
    ++_rpcsSent;
    stampPayload(peer, state.current.payload.data());
    writeRecord(peer, channel::reqOffset, state.nextSeq++,
                state.current.type, state.current.payload.data());
}

void
MapManager::stampPayload(NodeId peer, std::uint32_t *words) const
{
    if (auto *h = _kernel.health()) {
        std::uint64_t stamp = h->stampFor(peer);
        words[4] = HealthMonitor::stampIncarnation(stamp);
        words[5] = HealthMonitor::stampView(stamp);
    }
}

bool
MapManager::readAdmitted(NodeId peer, Addr rec_offset,
                         std::uint32_t *payload)
{
    const KernelLink &link = _channels[peer];
    for (unsigned i = 0; i < channel::payloadWords; ++i) {
        payload[i] = _kernel.readLinkWord(
            link, rec_offset + channel::payloadWord + 4 * i);
    }
    HealthMonitor *h = _kernel.health();
    std::uint64_t stamp =
        (static_cast<std::uint64_t>(payload[4]) << 32) | payload[5];
    return !h || h->admitStamp(peer, stamp);
}

void
MapManager::writeRecord(NodeId peer, Addr rec_offset, std::uint32_t seq,
                        std::uint32_t type, const std::uint32_t *payload)
{
    // Payload first, then type, then the seq doorbell: with in-order
    // delivery, a visible seq implies a complete record.
    const KernelLink &link = _channels[peer];
    for (unsigned i = 0; i < channel::payloadWords; ++i) {
        _kernel.writeLinkWord(link, rec_offset + channel::payloadWord + 4 * i,
                              payload[i]);
    }
    _kernel.writeLinkWord(link, rec_offset + channel::typeWord, type);
    _kernel.writeLinkWord(link, rec_offset + channel::seqWord, seq);
}

std::uint64_t
MapManager::handleArrival(NodeId peer)
{
    _workAccum = 0;
    PeerState &state = _peers[peer];
    const KernelLink &link = _channels[peer];

    // Incoming request?
    std::uint32_t req_seq = _kernel.readLinkWord(
        link, channel::reqOffset + channel::seqWord);
    if (req_seq != state.lastReqSeen && req_seq != 0) {
        state.lastReqSeen = req_seq;
        std::uint32_t type = _kernel.readLinkWord(
            link, channel::reqOffset + channel::typeWord);

        // Epoch fence: a request stamped from a stale life of either
        // endpoint is refused without dispatching. Admitting a newer
        // life fires peerEpochChanged, which resets this engine
        // re-entrantly; re-record the doorbell afterwards so the
        // request is not dispatched a second time.
        std::uint32_t payload[channel::payloadWords];
        bool admitted = readAdmitted(peer, channel::reqOffset, payload);
        state.lastReqSeen = req_seq;

        addWork(_kernel.costs().rpcDispatch);
        std::uint32_t resp[channel::payloadWords] = {};
        if (!admitted) {
            resp[0] = static_cast<std::uint32_t>(err::STALE_EPOCH);
        } else {
            switch (type) {
              case channel::MAP_PAGE:
                resp[0] = handleMapPage(peer, payload, resp);
                break;
              case channel::UNMAP_PAGE:
                resp[0] = handleUnmapPage(peer, payload);
                break;
              case channel::INVALIDATE:
                resp[0] = handleInvalidate(peer, payload);
                break;
              case channel::DSM_GET:
              case channel::DSM_PUT:
              case channel::DSM_FETCH:
              case channel::DSM_WB:
              case channel::DSM_INVAL: {
                Dsm *dsm = _kernel.dsm();
                resp[0] = dsm ? dsm->handleRpc(peer, type, payload, resp)
                              : static_cast<std::uint32_t>(err::INVAL);
                break;
              }
              default:
                resp[0] = err::INVAL;
                break;
            }
        }
        stampPayload(peer, resp);
        writeRecord(peer, channel::respOffset, req_seq, type, resp);
    }

    // Incoming response to our in-flight request?
    std::uint32_t resp_seq = _kernel.readLinkWord(
        link, channel::respOffset + channel::seqWord);
    if (state.inFlight && resp_seq == state.nextSeq - 1 &&
        resp_seq != state.lastRespSeen) {
        // Epoch fence. Admitting a newer life fires peerEpochChanged,
        // which resets this engine re-entrantly and dooms the
        // in-flight RPC with err::STALE_EPOCH — hence the re-check of
        // inFlight below.
        std::uint32_t resp[channel::payloadWords];
        bool admitted = readAdmitted(peer, channel::respOffset, resp);
        if (state.inFlight) {
            state.lastRespSeen = resp_seq;
            state.inFlight = false;
            KernelRpc completed = std::move(state.current);
            if (!admitted) {
                // A stale-life response must not complete the RPC as
                // a success, but dropping it silently would wedge the
                // engine; doom the RPC instead.
                resp[0] = static_cast<std::uint32_t>(err::STALE_EPOCH);
                for (unsigned i = 1; i < channel::payloadWords; ++i)
                    resp[i] = 0;
            }
            if (!state.queue.empty())
                transmit(peer, state);
            if (completed.onResponse)
                completed.onResponse(resp);
        }
    }

    return _workAccum;
}

// ---------------------------------------------------------------------
// Request handlers (receiver side)
// ---------------------------------------------------------------------

std::uint32_t
MapManager::handleMapPage(NodeId peer, const std::uint32_t *p,
                          std::uint32_t *resp)
{
    Pid dst_pid = p[0];
    PageNum dst_vpage = p[1];
    std::uint32_t flags = p[3];

    addWork(_kernel.costs().mapRemotePerPage);

    Process *proc = _kernel.findProcess(dst_pid);
    if (!proc || proc->reaped)
        return err::NOPROC;

    Pte *pte = proc->space().pageTable().find(dst_vpage);
    if (!pte) {
        // Paged out? Bring it back so the frame can receive data.
        if (_kernel.inSwap(dst_pid, dst_vpage)) {
            addWork(_kernel.costs().pageSwap);
            std::uint64_t e = _kernel.pageIn(*proc, dst_vpage);
            if (e != err::OK)
                return static_cast<std::uint32_t>(e);
            pte = proc->space().pageTable().find(dst_vpage);
        }
        if (!pte)
            return err::INVAL;
    }
    if (!pte->writable || !pte->user)
        return err::PERM;   // protection check, once, at map time

    PageNum frame = pte->frame;
    InRecord rec;
    rec.pid = dst_pid;
    rec.vpage = dst_vpage;
    rec.srcNode = peer;
    rec.flags = flags;
    rec.pinned = _kernel.consistencyPolicy() == ConsistencyPolicy::PIN;
    recordInDirect(rec, frame,
                   (flags & map_flags::ARRIVAL_INTERRUPT) != 0);

    resp[1] = static_cast<std::uint32_t>(frame);
    return err::OK;
}

std::uint32_t
MapManager::handleUnmapPage(NodeId peer, const std::uint32_t *p)
{
    Pid dst_pid = p[0];
    PageNum dst_vpage = p[1];

    addWork(_kernel.costs().mapRemotePerPage);

    PageNum frame = frameOf(dst_pid, dst_vpage);

    for (auto &[f, recs] : _inByFrame) {
        if (frame != INVALID_PAGE && f != frame)
            continue;
        for (auto it = recs.begin(); it != recs.end(); ++it) {
            if (it->pid == dst_pid && it->vpage == dst_vpage &&
                it->srcNode == peer) {
                if (it->pinned)
                    _kernel.frames().unpin(f);
                recs.erase(it);
                syncNiptIn(f);
                return err::OK;
            }
        }
    }
    return err::INVAL;
}

std::uint32_t
MapManager::handleInvalidate(NodeId peer, const std::uint32_t *p)
{
    PageNum remote_frame = p[0];
    ++_invalidationsReceived;
    addWork(_kernel.costs().mapRemotePerPage);

    // Invalidate every active mapping half we have toward that frame:
    // clear the NIPT entry and make the source virtual page read-only
    // so the next store faults and triggers a REMAP (Section 4.4).
    for (OutRecord &rec : _out) {
        if (rec.dstNode != peer || rec.dstFrame != remote_frame ||
            rec.invalidated) {
            continue;
        }
        rec.invalidated = true;
        PageNum frame = frameOf(rec.pid, rec.vpage);
        if (frame != INVALID_PAGE)
            clearOutHalf(frame, rec);
        Process *proc = _kernel.findProcess(rec.pid);
        if (proc)
            proc->space().pageTable().setWritable(rec.vpage, false);
    }
    return err::OK;
}

// ---------------------------------------------------------------------
// NIPT installation helpers
// ---------------------------------------------------------------------

std::optional<bool>
MapManager::slotForHalf(const NiptEntry &e, Addr begin, Addr end) const
{
    bool whole = begin == 0 && end == PAGE_SIZE;
    bool low_valid = e.outLow.valid();
    bool high_valid = e.outHigh.valid();

    if (whole)
        return (low_valid || high_valid)
                   ? std::nullopt
                   : std::optional<bool>(false);
    if (low_valid && high_valid)
        return std::nullopt;    // both hardware slots taken
    if (!low_valid && !high_valid) {
        // First half on the page: a half reaching the page end sits
        // in the high slot, anything else in the low slot.
        return end == PAGE_SIZE;
    }
    if (low_valid) {
        // The low slot covers [0, split); the new half must lie
        // entirely at or above the split to take the high slot.
        return begin >= e.splitOffset ? std::optional<bool>(true)
                                      : std::nullopt;
    }
    // The high slot covers [split, PAGE_SIZE).
    return end <= e.splitOffset ? std::optional<bool>(false)
                                : std::nullopt;
}

bool
MapManager::canInstallHalf(PageNum frame, Addr begin, Addr end) const
{
    return slotForHalf(_kernel.ni().nipt().entry(frame), begin, end)
        .has_value();
}

void
MapManager::installOutHalf(PageNum frame, OutRecord &rec)
{
    NiptEntry &e = _kernel.ni().nipt().entry(frame);
    OutMapping m;
    m.mode = rec.mode;
    m.dstNode = rec.dstNode;
    m.dstPage = rec.dstFrame;
    m.dstOffsetDelta = rec.dstDelta;

    auto slot = slotForHalf(e, rec.halfBegin, rec.halfEnd);
    SHRIMP_ASSERT(slot.has_value(),
                  "no free NIPT mapping slot on frame ", frame,
                  " for [", rec.halfBegin, ",", rec.halfEnd, ")");
    rec.highSlot = *slot;

    bool first = !e.outLow.valid() && !e.outHigh.valid();
    if (rec.halfBegin == 0 && rec.halfEnd == PAGE_SIZE) {
        e.splitOffset = 0;              // whole page
    } else if (first) {
        // The split point is fixed by the first half installed; a
        // later complementary half must fit the other side of it.
        e.splitOffset = *slot ? rec.halfBegin : rec.halfEnd;
    }
    if (*slot)
        e.outHigh = m;
    else
        e.outLow = m;
}

void
MapManager::clearOutHalf(PageNum frame, const OutRecord &rec)
{
    NiptEntry &e = _kernel.ni().nipt().entry(frame);
    if (rec.highSlot)
        e.outHigh = OutMapping{};
    else
        e.outLow = OutMapping{};
    if (!e.outLow.valid() && !e.outHigh.valid())
        e.splitOffset = 0;
}

PageNum
MapManager::frameOf(Pid pid, PageNum vpage) const
{
    Process *proc = _kernel.findProcess(pid);
    if (!proc)
        return INVALID_PAGE;
    const Pte *pte = proc->space().pageTable().find(vpage);
    return pte ? pte->frame : INVALID_PAGE;
}

void
MapManager::recordOutDirect(OutRecord rec, PageNum local_frame)
{
    installOutHalf(local_frame, rec);   // sets rec.highSlot
    _out.push_back(rec);
}

void
MapManager::recordInDirect(const InRecord &rec, PageNum frame,
                           bool arrival_interrupt)
{
    if (rec.pinned)
        _kernel.frames().pin(frame);
    NiptEntry &e = _kernel.ni().nipt().entry(frame);
    e.mappedIn = true;
    if (arrival_interrupt)
        e.interruptOnArrival = true;
    _inByFrame[frame].push_back(rec);
}

// ---------------------------------------------------------------------
// map()/unmap() protocol (source side)
// ---------------------------------------------------------------------

void
MapManager::startMap(Process &proc, const MapArgs &args,
                     std::function<void(std::uint64_t)> done)
{
    // Validate the source range once up front.
    for (std::uint32_t i = 0; i < args.npages; ++i) {
        PageNum vpage = pageOf(args.localVaddr) + i;
        const Pte *pte = proc.space().pageTable().find(vpage);
        if (!pte || !pte->writable || !pte->user) {
            done(err::PERM);
            return;
        }
        // One outgoing mapping per page on the syscall path (the
        // hardware's split mechanism is driven by mapDirectRange).
        if (_kernel.ni().nipt().entry(pte->frame).anyOut()) {
            done(err::AGAIN);
            return;
        }
    }
    auto mode = static_cast<UpdateMode>(args.mode);
    if (mode != UpdateMode::AUTO_SINGLE && mode != UpdateMode::AUTO_BLOCK
        && mode != UpdateMode::DELIBERATE) {
        done(err::INVAL);
        return;
    }
    if (args.dstNode >= _kernel.numNodes() ||
        args.dstNode == _kernel.nodeId()) {
        // Same-node mappings would bypass the network; the paper's
        // design targets cross-node communication only.
        done(err::INVAL);
        return;
    }
    if (_kernel.peerFailed(args.dstNode)) {
        // The failure detector declared the destination dead; fail
        // fast instead of letting the RPC time out silently.
        done(err::HOSTDOWN);
        return;
    }
    if (!_kernel.sendAdmissible(args.dstNode)) {
        // Admission control: the peer is SUSPECT or persistently
        // backed up; a map RPC toward it would only join the queue.
        _kernel.countSendRejected();
        done(err::WOULDBLOCK);
        return;
    }
    mapStep(proc, args, 0, std::move(done));
}

void
MapManager::mapStep(Process &proc, const MapArgs &args, std::uint32_t i,
                    std::function<void(std::uint64_t)> done)
{
    if (i == args.npages) {
        done(err::OK);
        return;
    }
    KernelRpc rpc;
    rpc.type = channel::MAP_PAGE;
    rpc.payload = {args.dstPid,
                   static_cast<std::uint32_t>(pageOf(args.dstVaddr) + i),
                   args.mode, args.flags, 0, 0};
    rpc.onResponse = [this, &proc, args, i, done = std::move(done)](
                         const std::uint32_t *r) mutable {
        if (r[0] != err::OK) {
            done(r[0]);
            return;
        }
        addWork(_kernel.costs().mapInstallPerPage);

        PageNum vpage = pageOf(args.localVaddr) + i;
        Pte *pte = proc.space().pageTable().find(vpage);
        if (!pte) {
            done(err::INVAL);
            return;
        }
        OutRecord rec;
        rec.pid = proc.pid();
        rec.vpage = vpage;
        rec.dstNode = args.dstNode;
        rec.dstPid = args.dstPid;
        rec.dstVpage = pageOf(args.dstVaddr) + i;
        rec.dstFrame = r[1];
        rec.mode = static_cast<UpdateMode>(args.mode);
        rec.flags = args.flags;
        recordOutDirect(rec, pte->frame);
        // Mapped-out pages are snooped: force write-through.
        pte->policy = CachePolicy::WRITE_THROUGH;
        mapStep(proc, args, i + 1, std::move(done));
    };
    sendRpc(args.dstNode, std::move(rpc));
}

void
MapManager::startUnmap(Process &proc, const MapArgs &args,
                       std::function<void(std::uint64_t)> done)
{
    if (args.dstNode < _kernel.numNodes() &&
        _kernel.peerFailed(args.dstNode)) {
        done(err::HOSTDOWN);
        return;
    }
    unmapStep(proc, args, 0, std::move(done));
}

void
MapManager::unmapStep(Process &proc, const MapArgs &args,
                      std::uint32_t i,
                      std::function<void(std::uint64_t)> done)
{
    if (i == args.npages) {
        done(err::OK);
        return;
    }
    PageNum vpage = pageOf(args.localVaddr) + i;
    PageNum dst_vpage = pageOf(args.dstVaddr) + i;

    // Find and remove our record first.
    auto it = std::find_if(_out.begin(), _out.end(),
                           [&](const OutRecord &rec) {
                               return rec.pid == proc.pid() &&
                                      rec.vpage == vpage &&
                                      rec.dstNode == args.dstNode &&
                                      rec.dstPid == args.dstPid &&
                                      rec.dstVpage == dst_vpage;
                           });
    if (it == _out.end()) {
        done(err::INVAL);
        return;
    }
    OutRecord removed = *it;
    _out.erase(it);
    PageNum frame = frameOf(proc.pid(), vpage);
    if (frame != INVALID_PAGE && !removed.invalidated)
        clearOutHalf(frame, removed);
    addWork(_kernel.costs().mapInstallPerPage);

    KernelRpc rpc;
    rpc.type = channel::UNMAP_PAGE;
    rpc.payload = {args.dstPid, static_cast<std::uint32_t>(dst_vpage), 0,
                   0, 0, 0};
    rpc.onResponse = [this, &proc, args, i, done = std::move(done)](
                         const std::uint32_t *r) mutable {
        if (r[0] != err::OK) {
            done(r[0]);
            return;
        }
        unmapStep(proc, args, i + 1, std::move(done));
    };
    sendRpc(args.dstNode, std::move(rpc));
}

// ---------------------------------------------------------------------
// Consistency: shootdown and remap
// ---------------------------------------------------------------------

void
MapManager::shootdown(PageNum frame, std::function<void()> done)
{
    auto it = _inByFrame.find(frame);
    if (it == _inByFrame.end() || it->second.empty()) {
        done();
        return;
    }

    // Distinct source nodes.
    std::vector<NodeId> sources;
    for (const InRecord &rec : it->second) {
        bool seen = false;
        for (NodeId n : sources)
            seen = seen || n == rec.srcNode;
        if (!seen)
            sources.push_back(rec.srcNode);
    }

    auto remaining = std::make_shared<std::size_t>(sources.size());
    auto done_fn =
        std::make_shared<std::function<void()>>(std::move(done));
    for (NodeId src : sources) {
        KernelRpc rpc;
        rpc.type = channel::INVALIDATE;
        rpc.payload = {static_cast<std::uint32_t>(frame), 0, 0, 0, 0, 0};
        rpc.onResponse = [remaining, done_fn](const std::uint32_t *) {
            if (--*remaining == 0)
                (*done_fn)();
        };
        sendRpc(src, std::move(rpc));
    }
}

MapManager::OutRecord *
MapManager::invalidatedRecord(Pid pid, PageNum vpage,
                              std::optional<Addr> half_begin)
{
    for (OutRecord &rec : _out) {
        if (rec.pid == pid && rec.vpage == vpage && rec.invalidated &&
            (!half_begin || rec.halfBegin == *half_begin)) {
            return &rec;
        }
    }
    return nullptr;
}

bool
MapManager::needsRemap(Pid pid, PageNum vpage) const
{
    for (const OutRecord &rec : _out) {
        if (rec.pid == pid && rec.vpage == vpage && rec.invalidated)
            return true;
    }
    return false;
}

void
MapManager::startRemap(Process &proc, PageNum vpage,
                       std::function<void(std::uint64_t)> done)
{
    const OutRecord *first = invalidatedRecord(proc.pid(), vpage);
    SHRIMP_ASSERT(first, "remap with nothing to do");

    if (_kernel.peerFailed(first->dstNode)) {
        done(err::HOSTDOWN);
        return;
    }
    remapStep(proc, vpage, std::move(done));
}

void
MapManager::remapStep(Process &proc, PageNum vpage,
                      std::function<void(std::uint64_t)> done)
{
    // Each step looks its record up again, by identity: an unmap or a
    // reap during a round trip erases other records and moves this
    // one within _out.
    const OutRecord *next = invalidatedRecord(proc.pid(), vpage);
    if (!next) {
        // All halves re-established: restore write permission.
        proc.space().pageTable().setWritable(vpage, true);
        ++_remaps;
        done(err::OK);
        return;
    }
    KernelRpc rpc;
    rpc.type = channel::MAP_PAGE;
    rpc.payload = {next->dstPid, static_cast<std::uint32_t>(next->dstVpage),
                   static_cast<std::uint32_t>(next->mode), next->flags, 0,
                   0};
    Addr half = next->halfBegin;
    rpc.onResponse = [this, &proc, vpage, half, done = std::move(done)](
                         const std::uint32_t *r) mutable {
        if (r[0] != err::OK) {
            done(r[0]);
            return;
        }
        if (OutRecord *rec = invalidatedRecord(proc.pid(), vpage, half)) {
            rec->dstFrame = r[1];
            rec->invalidated = false;
            PageNum frame = frameOf(rec->pid, rec->vpage);
            SHRIMP_ASSERT(frame != INVALID_PAGE,
                          "remap of a non-resident source page");
            installOutHalf(frame, *rec);
            addWork(_kernel.costs().mapInstallPerPage);
        }
        remapStep(proc, vpage, std::move(done));
    };
    sendRpc(next->dstNode, std::move(rpc));
}

// ---------------------------------------------------------------------
// Frame lifecycle
// ---------------------------------------------------------------------

void
MapManager::frameMoved(Pid pid, PageNum vpage, PageNum new_frame)
{
    // Records were created in ascending halfBegin order, so
    // reinstalling in record order reconstructs the split correctly.
    for (OutRecord &rec : _out) {
        if (rec.pid == pid && rec.vpage == vpage && !rec.invalidated)
            installOutHalf(new_frame, rec);
    }
}

void
MapManager::frameDropped(PageNum frame)
{
    NiptEntry &e = _kernel.ni().nipt().entry(frame);
    e = NiptEntry{};
    _inByFrame.erase(frame);
}

void
MapManager::releaseAllPins()
{
    for (auto &[frame, recs] : _inByFrame) {
        for (InRecord &rec : recs) {
            if (rec.pinned) {
                rec.pinned = false;
                _kernel.frames().unpin(frame);
            }
        }
    }
}

std::vector<PageNum>
MapManager::cleanupProcess(Pid pid)
{
    // Outgoing side: stop forwarding this process's stores (it will
    // never store again, but the NIPT entries must not dangle into
    // other processes if the frames are reused).
    for (auto it = _out.begin(); it != _out.end();) {
        if (it->pid != pid) {
            ++it;
            continue;
        }
        PageNum frame = frameOf(pid, it->vpage);
        if (frame != INVALID_PAGE && !it->invalidated)
            clearOutHalf(frame, *it);
        it = _out.erase(it);
    }

    // Incoming side: frames remote senders still target.
    std::vector<PageNum> victims;
    for (const auto &[frame, recs] : _inByFrame) {
        for (const InRecord &rec : recs) {
            if (rec.pid == pid) {
                victims.push_back(frame);
                break;
            }
        }
    }
    return victims;
}

void
MapManager::releaseInMappings(PageNum frame)
{
    auto it = _inByFrame.find(frame);
    if (it == _inByFrame.end())
        return;
    for (const InRecord &rec : it->second) {
        if (rec.pinned)
            _kernel.frames().unpin(frame);
    }
    _inByFrame.erase(it);
    syncNiptIn(frame);
}

void
MapManager::syncNiptIn(PageNum frame)
{
    auto it = _inByFrame.find(frame);
    if (it == _inByFrame.end() || it->second.empty()) {
        // Last incoming mapping gone: close the page.
        NiptEntry &e = _kernel.ni().nipt().entry(frame);
        e.mappedIn = false;
        e.interruptOnArrival = false;
    }
}

// ---------------------------------------------------------------------
// Node-failure recovery
// ---------------------------------------------------------------------

unsigned
MapManager::purgeDeadPeerIn(NodeId peer)
{
    unsigned purged = 0;
    for (auto it = _inByFrame.begin(); it != _inByFrame.end();) {
        PageNum frame = it->first;
        auto &recs = it->second;
        for (auto rit = recs.begin(); rit != recs.end();) {
            if (rit->srcNode != peer) {
                ++rit;
                continue;
            }
            if (rit->pinned)
                _kernel.frames().unpin(frame);
            rit = recs.erase(rit);
            ++purged;
        }
        syncNiptIn(frame);
        if (recs.empty())
            it = _inByFrame.erase(it);
        else
            ++it;
    }
    return purged;
}

unsigned
MapManager::purgeOutTo(NodeId peer)
{
    unsigned dropped = 0;
    for (auto it = _out.begin(); it != _out.end();) {
        if (it->dstNode != peer) {
            ++it;
            continue;
        }
        PageNum frame = frameOf(it->pid, it->vpage);
        if (frame != INVALID_PAGE && !it->invalidated)
            clearOutHalf(frame, *it);
        it = _out.erase(it);
        ++dropped;
    }
    return dropped;
}

void
MapManager::resetPeer(NodeId peer, std::uint64_t errno_)
{
    PeerState &state = _peers.at(peer);
    std::vector<KernelRpc> doomed;
    if (state.inFlight)
        doomed.push_back(std::move(state.current));
    for (KernelRpc &rpc : state.queue)
        doomed.push_back(std::move(rpc));
    state = PeerState{};

    std::uint32_t resp[channel::payloadWords] = {};
    resp[0] = static_cast<std::uint32_t>(errno_);
    for (KernelRpc &rpc : doomed) {
        if (rpc.onResponse)
            rpc.onResponse(resp);
    }
}

void
MapManager::clearChannelIn(NodeId peer)
{
    std::vector<std::uint8_t> zeros(PAGE_SIZE, 0);
    _kernel.mem().write(pageBase(_channels.at(peer).in), zeros.data(),
                        PAGE_SIZE);
}

bool
MapManager::hasInMappings(PageNum frame) const
{
    auto it = _inByFrame.find(frame);
    return it != _inByFrame.end() && !it->second.empty();
}

} // namespace shrimp
