#include "os/dsm.hh"

#include <algorithm>

#include "os/kernel.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

namespace
{

/** Errno constants are 64-bit; RPC response words are 32-bit. */
constexpr std::uint32_t
rc(std::uint64_t e)
{
    return static_cast<std::uint32_t>(e);
}

bool
contains(const std::vector<NodeId> &v, NodeId n)
{
    return std::find(v.begin(), v.end(), n) != v.end();
}

} // namespace

Dsm::Dsm(Kernel &kernel, const DsmConfig &cfg)
    : _kernel(kernel),
      _cfg(cfg),
      _local(cfg.numPages),
      _dir(cfg.numPages),
      _links(kernel.numNodes()),
      _stats("dsm", &kernel.statGroup())
{
    SHRIMP_ASSERT(_cfg.numPages > 0, "DSM window is empty");
    for (std::uint32_t page = 0; page < _cfg.numPages; ++page) {
        if (homeNode(page) != kernel.nodeId())
            continue;
        DirEntry &d = _dir[page];
        d.homedHere = true;
        d.homeFrame = kernel.allocPinnedFrame("DSM home frame");
    }
    // Page data arrives silently; the control RPC that follows it on
    // the (interrupting, in-order) kernel channel announces it.
    for (NodeId peer = 0; peer < _links.size(); ++peer) {
        if (peer != kernel.nodeId()) {
            _links[peer].frames =
                kernel.openLink(peer, UpdateMode::DELIBERATE, "DSM links");
        }
    }
}

PageNum
Dsm::bounceInFrame(NodeId peer) const
{
    return _links.at(peer).frames.in;
}

void
Dsm::attach(Process &proc)
{
    SHRIMP_ASSERT(!_proc, "DSM window already attached to a process");
    _proc = &proc;
}

// ---------------------------------------------------------------------
// The fault path (requester side)
// ---------------------------------------------------------------------

bool
Dsm::managesFault(const Process &proc, Addr vaddr) const
{
    return _proc == &proc && vaddr >= baseVaddr &&
           vaddr < baseVaddr + Addr{_cfg.numPages} * PAGE_SIZE;
}

void
Dsm::faultOn(Process &proc, Addr vaddr, bool write,
             std::function<void(std::uint64_t)> done)
{
    SHRIMP_ASSERT(managesFault(proc, vaddr),
                  "fault outside the DSM window");
    acquire(static_cast<std::uint32_t>(pageOf(vaddr - baseVaddr)),
            write, std::move(done));
}

bool
Dsm::satisfied(const LocalPage &lp, bool write)
{
    return lp.state == DsmPageState::WRITE_EXCLUSIVE ||
           (!write && lp.state == DsmPageState::READ_SHARED);
}

void
Dsm::acquire(std::uint32_t page, bool write,
             std::function<void(std::uint64_t)> done)
{
    SHRIMP_ASSERT(page < _cfg.numPages, "DSM page out of range ", page);
    if (satisfied(_local[page], write)) {
        if (done)
            done(err::OK);
        return;
    }
    auto &q = _reqs[page];
    LocalReq req;
    req.id = _nextReqId++;
    req.write = write;
    req.done = std::move(done);
    req.start = _kernel.curTick();
    q.push_back(std::move(req));
    if (q.size() == 1)
        issueHead(page);
}

void
Dsm::issueHead(std::uint32_t page)
{
    auto &q = _reqs[page];
    SHRIMP_ASSERT(!q.empty() && !q.front().issued,
                  "DSM issue with no fresh head request");
    LocalReq &head = q.front();
    head.issued = true;
    ++_faults;
    _kernel.charge(nullptr, _kernel.costs().faultHandler);

    NodeId home = homeNode(page);
    if (home == _kernel.nodeId()) {
        dirEnqueue(page, home, head.write,
                   _local[page].state == DsmPageState::READ_SHARED);
        return;
    }
    if (_kernel.peerFailed(home)) {
        // Fail fast, but never re-entrantly: the caller of acquire()
        // sees its callback run from an event, as in the remote case.
        std::uint64_t id = head.id;
        _kernel.eventQueue().scheduleFn(
            [this, page, id] {
                completeLocalIf(page, id, err::HOSTDOWN);
            },
            _kernel.curTick(), EventPriority::DEFAULT,
            "dsm home down");
        return;
    }
    DsmMsg m;
    m.type = channel::DSM_GET;
    m.payload[0] = page;
    m.payload[1] = head.write ? 1 : 0;
    m.payload[2] = _local[page].state != DsmPageState::INVALID ? 1 : 0;
    std::uint64_t id = head.id;
    m.onResponse = [this, page, id](const std::uint32_t *resp) {
        // err::OK only acknowledges queueing at the home; the grant
        // (or failure) arrives later as a DSM_PUT.
        if (resp[0] != rc(err::OK))
            completeLocalIf(page, id, resp[0]);
    };
    sendMsg(home, std::move(m));
}

void
Dsm::completeLocal(std::uint32_t page, std::uint64_t status)
{
    auto it = _reqs.find(page);
    if (it == _reqs.end() || it->second.empty())
        return;
    auto &q = it->second;
    LocalReq head = std::move(q.front());
    q.pop_front();
    if (status == err::OK)
        _faultLatency.sample(_kernel.curTick() - head.start);
    else if (status == err::HOSTDOWN)
        ++_hostdown;
    if (head.done)
        head.done(status);
    // Serve queued requests the new local state already satisfies and
    // issue the first one it does not.
    while (!q.empty() && !q.front().issued) {
        if (satisfied(_local[page], q.front().write)) {
            LocalReq r = std::move(q.front());
            q.pop_front();
            if (r.done)
                r.done(err::OK);
        } else {
            issueHead(page);
        }
    }
}

void
Dsm::completeLocalIf(std::uint32_t page, std::uint64_t id,
                     std::uint64_t status)
{
    auto it = _reqs.find(page);
    if (it == _reqs.end() || it->second.empty() ||
        it->second.front().id != id)
        return;
    completeLocal(page, status);
}

void
Dsm::installLocal(std::uint32_t page, PageNum frame, bool write)
{
    SHRIMP_ASSERT(frame != INVALID_PAGE, "DSM install without a frame");
    LocalPage &lp = _local[page];
    lp.frame = frame;
    lp.state = write ? DsmPageState::WRITE_EXCLUSIVE
                     : DsmPageState::READ_SHARED;
    if (_proc) {
        _proc->space().pageTable().map(
            pageOf(windowVaddr(page)),
            Pte{frame, write, true, CachePolicy::WRITE_BACK});
    }
    _kernel.charge(nullptr, _kernel.costs().mapInstallPerPage);
}

void
Dsm::dropLocal(std::uint32_t page)
{
    LocalPage &lp = _local[page];
    if (_proc && lp.state != DsmPageState::INVALID)
        _proc->space().pageTable().unmap(pageOf(windowVaddr(page)));
    if (lp.frame != INVALID_PAGE &&
        !(isHome(page) && lp.frame == _dir[page].homeFrame)) {
        _kernel.frames().unpin(lp.frame);
        _kernel.frames().free(lp.frame);
    }
    lp.frame = INVALID_PAGE;
    lp.state = DsmPageState::INVALID;
}

// ---------------------------------------------------------------------
// Home-side directory
// ---------------------------------------------------------------------

void
Dsm::dirEnqueue(std::uint32_t page, NodeId requester, bool write,
                bool haveCopy)
{
    DirEntry &d = _dir[page];
    SHRIMP_ASSERT(d.homedHere, "directory request for a foreign page");
    HomeReq h;
    h.requester = requester;
    h.write = write;
    h.haveCopy = haveCopy;
    d.waiters.push_back(h);
    pump(page);
}

void
Dsm::pump(std::uint32_t page)
{
    DirEntry &d = _dir[page];
    if (d.busy || d.waiters.empty())
        return;
    // Post-grant hold: give the previous grantee time to re-execute
    // its faulting instruction before the next waiter can recall or
    // invalidate the page out from under it (anti-livelock).
    const Tick earliest = d.lastGrant + grantHold;
    if (_kernel.curTick() < earliest) {
        if (d.pumpDeferred)
            return;
        d.pumpDeferred = true;
        _kernel.eventQueue().scheduleFn(
            [this, page] {
                _dir[page].pumpDeferred = false;
                pump(page);
            },
            earliest, EventPriority::DEFAULT, "dsm grant hold");
        return;
    }
    d.busy = true;
    runHead(page);
}

void
Dsm::runHead(std::uint32_t page)
{
    DirEntry &d = _dir[page];
    SHRIMP_ASSERT(d.busy && !d.waiters.empty(), "runHead without head");
    if (d.awaitingWb || d.pendingAcks > 0)
        return;     // a recall or shootdown step is still in flight

    const NodeId self = _kernel.nodeId();
    HomeReq h = d.waiters.front();

    if (d.errored ||
        (h.requester != self && _kernel.peerFailed(h.requester))) {
        finishHead(page, err::HOSTDOWN);
        return;
    }

    // Recall the page from an exclusive owner.
    if (d.owner != INVALID_NODE && d.owner != h.requester) {
        if (d.owner == self) {
            // We are the owner; the home frame holds the live data
            // (data writes are functional), so no copy is needed.
            if (h.write) {
                dropLocal(page);
                ++_invalidations;
            } else {
                _local[page].state = DsmPageState::READ_SHARED;
                if (_proc)
                    _proc->space().pageTable().setWritable(
                        pageOf(windowVaddr(page)), false);
                if (!contains(d.sharers, self))
                    d.sharers.push_back(self);
            }
            d.owner = INVALID_NODE;
        } else if (_kernel.peerFailed(d.owner)) {
            ownerLost(page);
            return;
        } else {
            d.awaitingWb = true;
            ++_fetches;
            DsmMsg m;
            m.type = channel::DSM_FETCH;
            m.payload[0] = page;
            m.payload[1] = h.write ? 1 : 0;
            std::uint64_t gen = d.gen;
            m.onResponse = [this, page, gen](const std::uint32_t *resp) {
                DirEntry &e = _dir[page];
                if (e.gen != gen || !e.awaitingWb)
                    return;
                if (resp[0] == rc(err::OK))
                    return;     // the DSM_WB is on its way
                e.awaitingWb = false;
                if (resp[0] == rc(err::AGAIN)) {
                    // The owner is alive but holds no copy (stale
                    // record across a failure flap): release the
                    // ownership and serve the last written-back copy.
                    e.owner = INVALID_NODE;
                    if (e.busy)
                        runHead(page);
                } else {
                    ownerLost(page);
                }
            };
            sendMsg(d.owner, std::move(m));
            return;
        }
    } else if (d.owner == h.requester && d.owner != INVALID_NODE) {
        // The recorded owner is re-faulting: it lost its copy (a
        // restart or failure flap we never observed). Release the
        // ownership; the home copy is the freshest surviving version.
        d.owner = INVALID_NODE;
    }

    if (!h.write) {
        grant(page);
        return;
    }

    // Write: shoot down every other sharer first (the Section 4.4
    // invalidation shape, carried over the kernel RPC channel).
    for (std::size_t i = d.sharers.size(); i-- > 0;) {
        NodeId s = d.sharers[i];
        if (s == h.requester)
            continue;
        d.sharers.erase(d.sharers.begin() +
                        static_cast<std::ptrdiff_t>(i));
        if (s == self) {
            if (_local[page].state != DsmPageState::INVALID) {
                dropLocal(page);
                ++_invalidations;
            }
        } else if (!_kernel.peerFailed(s)) {
            ++d.pendingAcks;
            DsmMsg m;
            m.type = channel::DSM_INVAL;
            m.payload[0] = page;
            std::uint64_t gen = d.gen;
            m.onResponse = [this, page, gen](const std::uint32_t *) {
                // Any response counts: a synthesized HOSTDOWN means
                // the sharer died, which invalidates just as well.
                ackInval(page, gen);
            };
            sendMsg(s, std::move(m));
        }
    }
    if (d.pendingAcks > 0)
        return;
    grant(page);
}

void
Dsm::grant(std::uint32_t page)
{
    DirEntry &d = _dir[page];
    HomeReq h = d.waiters.front();
    const NodeId self = _kernel.nodeId();
    if (h.requester != self && _kernel.peerFailed(h.requester)) {
        finishHead(page, err::HOSTDOWN);
        return;
    }
    // A write skips the data transfer only when both sides agree the
    // requester still holds a READ_SHARED copy to upgrade in place.
    bool with_data =
        !(h.write && h.haveCopy && contains(d.sharers, h.requester));
    if (h.write) {
        d.sharers.clear();
        d.owner = h.requester;
        // Bind the grant to the requester's current life: only that
        // life's writeback may land in the home frame.
        d.granteeIncarnation = h.requester == self
                                   ? _kernel.selfIncarnation()
                                   : _kernel.peerIncarnation(h.requester);
    } else if (!contains(d.sharers, h.requester)) {
        d.sharers.push_back(h.requester);
    }
    if (h.requester == self)
        installLocal(page, d.homeFrame, h.write);
    else
        sendPut(h.requester, page, h.write, with_data, err::OK);
    finishHead(page, err::OK);
}

void
Dsm::sendPut(NodeId dst, std::uint32_t page, bool write, bool with_data,
             std::uint64_t status)
{
    DsmMsg m;
    m.type = channel::DSM_PUT;
    m.payload[0] = page;
    m.payload[1] = write ? 1 : 0;
    m.payload[2] = with_data ? 1 : 0;
    m.payload[3] = rc(status);
    if (with_data) {
        m.withData = true;
        m.data = readFrame(_dir[page].homeFrame);
    }
    sendMsg(dst, std::move(m));
}

void
Dsm::finishHead(std::uint32_t page, std::uint64_t status)
{
    DirEntry &d = _dir[page];
    SHRIMP_ASSERT(d.busy && !d.waiters.empty(), "finish without head");
    HomeReq h = d.waiters.front();
    d.waiters.pop_front();
    d.busy = false;
    d.awaitingWb = false;
    d.pendingAcks = 0;
    ++d.gen;    // orphan stale FETCH/INVAL callbacks of this sequence
    if (status == err::OK)
        d.lastGrant = _kernel.curTick();
    if (h.requester == _kernel.nodeId()) {
        completeLocal(page, status);
    } else if (status != err::OK && !_kernel.peerFailed(h.requester)) {
        sendPut(h.requester, page, h.write, false, status);
    }
    pump(page);
}

void
Dsm::ackInval(std::uint32_t page, std::uint64_t gen)
{
    DirEntry &d = _dir[page];
    if (d.gen != gen || d.pendingAcks == 0)
        return;
    if (--d.pendingAcks == 0 && d.busy)
        runHead(page);
}

void
Dsm::ownerLost(std::uint32_t page)
{
    DirEntry &d = _dir[page];
    if (!d.errored) {
        d.errored = true;
        d.lostOwner = d.owner;
    }
    d.owner = INVALID_NODE;
    d.granteeIncarnation = 0;
    d.sharers.clear();
    d.awaitingWb = false;
    d.pendingAcks = 0;
    ++d.gen;
    if (d.busy && !d.waiters.empty())
        finishHead(page, err::HOSTDOWN);
}

// ---------------------------------------------------------------------
// Ordered per-peer message queue (control + page data)
// ---------------------------------------------------------------------

void
Dsm::sendMsg(NodeId dst, DsmMsg msg)
{
    SHRIMP_ASSERT(dst < _links.size() && dst != _kernel.nodeId(),
                  "bad DSM message destination ", dst);
    if (_kernel.peerFailed(dst)) {
        failMsg(msg);
        return;
    }
    PeerLink &l = _links[dst];
    l.queue.push_back(std::move(msg));
    if (!l.active)
        startNext(dst);
}

void
Dsm::startNext(NodeId dst)
{
    PeerLink &l = _links[dst];
    if (l.active || l.queue.empty())
        return;
    if (_kernel.peerFailed(dst)) {
        failAllMsgs(dst);
        return;
    }
    l.active = true;
    DsmMsg &m = l.queue.front();
    if (m.withData) {
        SHRIMP_ASSERT(m.data.size() == PAGE_SIZE, "bad DSM page image");
        _kernel.mem().write(pageBase(l.frames.out), m.data.data(),
                            PAGE_SIZE);
        startDma(dst, l.gen);
    } else {
        postMsgRpc(dst);
    }
}

void
Dsm::startDma(NodeId dst, std::uint64_t gen)
{
    PeerLink &l = _links[dst];
    if (l.gen != gen || !l.active)
        return;
    if (!_kernel.ni().dma().start(pageBase(l.frames.out), PAGE_SIZE / 4,
                                  [this, dst, gen] {
                                      dmaCompleted(dst, gen);
                                  })) {
        // Engine claimed by a user deliberate transfer or NX; retry.
        _kernel.eventQueue().scheduleFn(
            [this, dst, gen] { startDma(dst, gen); },
            _kernel.curTick() + 2 * ONE_US, EventPriority::DEFAULT,
            "dsm dma retry");
    }
}

void
Dsm::postMsgRpc(NodeId dst)
{
    PeerLink &l = _links[dst];
    SHRIMP_ASSERT(l.active && !l.queue.empty(),
                  "DSM rpc post with no message");
    DsmMsg &m = l.queue.front();
    if (m.withData)
        ++_pagesSent;
    KernelRpc rpc;
    rpc.type = m.type;
    rpc.payload = m.payload;
    std::uint64_t gen = l.gen;
    rpc.onResponse = [this, dst, gen](const std::uint32_t *resp) {
        msgAcked(dst, gen, resp);
    };
    _kernel.mapManager().sendRpc(dst, std::move(rpc));
}

void
Dsm::msgAcked(NodeId dst, std::uint64_t gen, const std::uint32_t *resp)
{
    PeerLink &l = _links[dst];
    if (l.gen != gen || !l.active || l.queue.empty())
        return;
    DsmMsg m = std::move(l.queue.front());
    l.queue.pop_front();
    l.active = false;
    if (m.onResponse)
        m.onResponse(resp);
    startNext(dst);
}

void
Dsm::failAllMsgs(NodeId dst)
{
    PeerLink &l = _links[dst];
    ++l.gen;    // orphan in-flight acks, DMA retries and completions
    l.active = false;
    while (!l.queue.empty()) {
        failMsg(l.queue.front());
        l.queue.pop_front();
    }
}

void
Dsm::failMsg(DsmMsg &m)
{
    if (!m.onResponse)
        return;
    _kernel.eventQueue().scheduleFn(
        [cb = std::move(m.onResponse)] {
            std::uint32_t resp[channel::payloadWords] = {};
            resp[0] = rc(err::HOSTDOWN);
            cb(resp);
        },
        _kernel.curTick(), EventPriority::DEFAULT, "dsm msg hostdown");
}

void
Dsm::dmaCompleted(NodeId dst, std::uint64_t gen)
{
    PeerLink &l = _links[dst];
    if (l.gen != gen || !l.active)
        return;     // the queue was torn down while the page was sent
    postMsgRpc(dst);
}

// ---------------------------------------------------------------------
// Request handlers (run inside the kernel channel arrival dispatch;
// everything a handler copies out of a bounce frame is copied before
// the acknowledgement is written)
// ---------------------------------------------------------------------

std::uint32_t
Dsm::handleRpc(NodeId peer, std::uint32_t type,
               const std::uint32_t *payload, std::uint32_t *resp)
{
    (void)resp;
    switch (type) {
      case channel::DSM_GET:
        return handleGet(peer, payload);
      case channel::DSM_PUT:
        return handlePut(peer, payload);
      case channel::DSM_FETCH:
        return handleFetch(peer, payload);
      case channel::DSM_WB:
        return handleWb(peer, payload);
      case channel::DSM_INVAL:
        return handleInval(peer, payload);
      default:
        return rc(err::INVAL);
    }
}

std::uint32_t
Dsm::handleGet(NodeId peer, const std::uint32_t *p)
{
    std::uint32_t page = p[0];
    if (page >= _cfg.numPages || !isHome(page))
        return rc(err::INVAL);
    if (_dir[page].errored)
        return rc(err::HOSTDOWN);
    _kernel.mapManager().addWork(_kernel.costs().mapRemotePerPage);
    dirEnqueue(page, peer, p[1] != 0, p[2] != 0);
    return rc(err::OK);
}

std::uint32_t
Dsm::handlePut(NodeId peer, const std::uint32_t *p)
{
    std::uint32_t page = p[0];
    if (page >= _cfg.numPages || homeNode(page) != peer)
        return rc(err::INVAL);
    bool write = p[1] != 0;
    bool with_data = p[2] != 0;
    std::uint32_t status = p[3];
    if (status != rc(err::OK)) {
        completeLocal(page, status);
        return rc(err::OK);
    }
    LocalPage &lp = _local[page];
    if (with_data) {
        if (lp.frame == INVALID_PAGE)
            lp.frame = _kernel.allocPinnedFrame("DSM cache frame");
        copyFrame(_links[peer].frames.in, lp.frame);
        _kernel.mapManager().addWork(_kernel.costs().pageSwap);
    } else if (lp.frame == INVALID_PAGE) {
        // The home granted an in-place upgrade but our copy is gone (a
        // stale sharer record): fail the fault rather than map garbage.
        completeLocal(page, err::AGAIN);
        return rc(err::OK);
    }
    installLocal(page, lp.frame, write);
    completeLocal(page, err::OK);
    return rc(err::OK);
}

std::uint32_t
Dsm::handleFetch(NodeId peer, const std::uint32_t *p)
{
    std::uint32_t page = p[0];
    if (page >= _cfg.numPages || homeNode(page) != peer)
        return rc(err::INVAL);
    bool invalidate = p[1] != 0;
    LocalPage &lp = _local[page];
    if (lp.state == DsmPageState::INVALID || lp.frame == INVALID_PAGE)
        return rc(err::AGAIN);  // no copy to write back (stale recall)

    DsmMsg wb;
    wb.type = channel::DSM_WB;
    wb.payload[0] = page;
    wb.payload[1] = invalidate ? 0 : 1;     // we keep a read copy
    wb.withData = true;
    wb.data = readFrame(lp.frame);  // capture before the frame dies
    if (invalidate) {
        dropLocal(page);
        ++_invalidations;
    } else {
        lp.state = DsmPageState::READ_SHARED;
        if (_proc)
            _proc->space().pageTable().setWritable(
                pageOf(windowVaddr(page)), false);
    }
    _kernel.mapManager().addWork(_kernel.costs().pageSwap);
    sendMsg(peer, std::move(wb));
    return rc(err::OK);
}

std::uint32_t
Dsm::handleWb(NodeId peer, const std::uint32_t *p)
{
    std::uint32_t page = p[0];
    if (page >= _cfg.numPages || !isHome(page))
        return rc(err::INVAL);
    bool downgraded = p[1] != 0;
    DirEntry &d = _dir[page];
    // Split-brain fence: only a writeback from the life the write
    // grant was made to may land in the home frame. Anything else --
    // a node the directory no longer records as owner (the page was
    // re-homed behind its back), or a different life of the grantee
    // (p[4] is the sender's incarnation stamp) -- is a relic that
    // must not clobber the authoritative copy.
    std::uint32_t inc = p[4];
    if (d.owner != peer ||
        (Incarnation::observed(inc) &&
         Incarnation::observed(d.granteeIncarnation) &&
         !Incarnation::sameLife(inc, d.granteeIncarnation))) {
        ++_fencedWritebacks;
        if (auto *t = _kernel.eventQueue().tracer()) {
            t->instant(
                _kernel.curTick(), _kernel.name(), "dsm", "fencedWriteback",
                {trace::arg("page", page),
                 trace::arg("src", static_cast<std::uint64_t>(peer)),
                 trace::arg("inc", inc),
                 trace::arg("owner", static_cast<std::uint64_t>(d.owner)),
                 trace::arg("granteeInc", d.granteeIncarnation)});
        }
        return rc(err::STALE_EPOCH);
    }
    // Land the data in the home frame before acknowledging: once the
    // ack is written the writer may reuse its bounce path.
    copyFrame(_links[peer].frames.in, d.homeFrame);
    _kernel.mapManager().addWork(_kernel.costs().pageSwap);
    d.owner = INVALID_NODE;
    d.granteeIncarnation = 0;
    if (downgraded && !contains(d.sharers, peer))
        d.sharers.push_back(peer);
    if (d.awaitingWb) {
        d.awaitingWb = false;
        if (d.busy)
            runHead(page);
    }
    return rc(err::OK);
}

std::uint32_t
Dsm::handleInval(NodeId peer, const std::uint32_t *p)
{
    std::uint32_t page = p[0];
    if (page >= _cfg.numPages || homeNode(page) != peer)
        return rc(err::INVAL);
    if (_local[page].state != DsmPageState::INVALID) {
        dropLocal(page);
        ++_invalidations;
    }
    _kernel.mapManager().addWork(_kernel.costs().mapInstallPerPage);
    return rc(err::OK);     // a stale shootdown acks OK as well
}

// ---------------------------------------------------------------------
// Node-failure integration
// ---------------------------------------------------------------------

void
Dsm::peerDied(NodeId peer)
{
    if (peer >= _links.size() || peer == _kernel.nodeId())
        return;

    failAllMsgs(peer);

    for (std::uint32_t page = 0; page < _cfg.numPages; ++page) {
        if (isHome(page)) {
            DirEntry &d = _dir[page];
            forgetPeer(d, peer);
            if (d.owner == peer)
                ownerLost(page);
            else
                pump(page);
        } else if (homeNode(page) == peer) {
            // Our copy of a page homed there is orphaned; pending
            // faults can only fail.
            failLocal(page, err::HOSTDOWN);
        }
    }
}

void
Dsm::peerRecovered(NodeId peer)
{
    for (std::uint32_t page = 0; page < _cfg.numPages; ++page) {
        if (!isHome(page))
            continue;
        if (rehome(_dir[page], peer))
            pump(page);
    }
}

void
Dsm::peerEpochChanged(NodeId peer, std::uint32_t inc)
{
    (void)inc;
    if (peer >= _links.size() || peer == _kernel.nodeId())
        return;

    // Messages addressed to the old life can never be acknowledged by
    // the new one (its RPC engine restarted from scratch).
    failAllMsgs(peer);

    for (std::uint32_t page = 0; page < _cfg.numPages; ++page) {
        if (isHome(page)) {
            DirEntry &d = _dir[page];
            // Old-life requests are void; the new life re-requests.
            forgetPeer(d, peer);
            // The peer's new life is proof its old one is gone -- the
            // same evidence peerRecovered() acts on. Re-home here too:
            // a restart can outrun the failure detector (never DEAD,
            // so never "recovered"), and the doomed recall RPC has
            // already routed through ownerLost(). Exactly once either
            // way: ownerLost() cleared the owner field, so the revoke
            // branch below cannot also fire for this grant.
            rehome(d, peer);
            if (d.owner == peer) {
                // Revoke the old life's grant: the last written-back
                // copy in the home frame becomes authoritative again.
                // Exactly once per grant -- the owner field is cleared
                // here, so a second epoch change cannot re-home.
                d.owner = INVALID_NODE;
                d.granteeIncarnation = 0;
                d.awaitingWb = false;
                d.pendingAcks = 0;
                ++d.gen;
                ++_rehomes;
                if (d.busy && !d.waiters.empty()) {
                    if (d.waiters.front().requester == peer)
                        finishHead(page, err::STALE_EPOCH);
                    else
                        runHead(page);
                } else {
                    pump(page);
                }
            } else {
                pump(page);
            }
        } else if (homeNode(page) == peer) {
            // The home's directory restarted without us: our copy and
            // pending faults refer to state it no longer tracks.
            failLocal(page, err::STALE_EPOCH);
        }
    }
}

void
Dsm::fenceSelf()
{
    // Our new life must not keep copies granted to the old one: the
    // home may have re-homed them while we were partitioned away, and
    // a surviving WRITE_EXCLUSIVE copy here would be a second owner.
    for (std::uint32_t page = 0; page < _cfg.numPages; ++page) {
        if (!isHome(page) &&
            _local[page].state != DsmPageState::INVALID) {
            dropLocal(page);
        }
    }
}

void
Dsm::reset()
{
    for (NodeId peer = 0; peer < _links.size(); ++peer) {
        if (peer == _kernel.nodeId())
            continue;
        PeerLink &l = _links[peer];
        ++l.gen;
        l.active = false;
        l.queue.clear();
    }
    for (std::uint32_t page = 0; page < _cfg.numPages; ++page) {
        failLocal(page, err::HOSTDOWN);
        DirEntry &d = _dir[page];
        if (!d.homedHere)
            continue;
        // The directory restarts empty; peers that held copies saw us
        // die and dropped them symmetrically. Home frames (and their
        // last written-back contents) persist across the restart.
        d.sharers.clear();
        d.owner = INVALID_NODE;
        d.granteeIncarnation = 0;
        d.lostOwner = INVALID_NODE;
        d.errored = false;
        d.busy = false;
        d.pendingAcks = 0;
        d.awaitingWb = false;
        ++d.gen;
        d.waiters.clear();
    }
}

void
Dsm::forgetPeer(DirEntry &d, NodeId peer)
{
    std::erase(d.sharers, peer);
    auto &w = d.waiters;
    std::size_t keep = d.busy ? 1 : 0;
    for (std::size_t i = w.size(); i-- > keep;)
        if (w[i].requester == peer)
            w.erase(w.begin() + static_cast<std::ptrdiff_t>(i));
}

bool
Dsm::rehome(DirEntry &d, NodeId peer)
{
    if (!d.errored || d.lostOwner != peer)
        return false;
    d.errored = false;
    d.lostOwner = INVALID_NODE;
    ++_rehomes;
    return true;
}

void
Dsm::failLocal(std::uint32_t page, std::uint64_t status)
{
    dropLocal(page);
    auto it = _reqs.find(page);
    if (it == _reqs.end())
        return;
    auto &q = it->second;
    while (!q.empty()) {
        LocalReq r = std::move(q.front());
        q.pop_front();
        if (status == err::HOSTDOWN)
            ++_hostdown;
        if (r.done)
            r.done(status);
    }
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

NodeId
Dsm::homeNode(std::uint32_t page) const
{
    SHRIMP_ASSERT(page < _cfg.numPages, "DSM page out of range ", page);
    return page % _kernel.numNodes();
}

bool
Dsm::isHome(std::uint32_t page) const
{
    return homeNode(page) == _kernel.nodeId();
}

DsmPageState
Dsm::localState(std::uint32_t page) const
{
    return _local.at(page).state;
}

PageNum
Dsm::localFrame(std::uint32_t page) const
{
    return _local.at(page).frame;
}

NodeId
Dsm::ownerOf(std::uint32_t page) const
{
    SHRIMP_ASSERT(_dir.at(page).homedHere, "not the home of ", page);
    return _dir[page].owner;
}

const std::vector<NodeId> &
Dsm::sharersOf(std::uint32_t page) const
{
    SHRIMP_ASSERT(_dir.at(page).homedHere, "not the home of ", page);
    return _dir[page].sharers;
}

bool
Dsm::errored(std::uint32_t page) const
{
    SHRIMP_ASSERT(_dir.at(page).homedHere, "not the home of ", page);
    return _dir[page].errored;
}

PageNum
Dsm::homeFrameOf(std::uint32_t page) const
{
    SHRIMP_ASSERT(_dir.at(page).homedHere, "not the home of ", page);
    return _dir[page].homeFrame;
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

void
Dsm::copyFrame(PageNum src, PageNum dst)
{
    std::vector<std::uint8_t> buf(PAGE_SIZE);
    _kernel.mem().read(pageBase(src), buf.data(), PAGE_SIZE);
    _kernel.mem().write(pageBase(dst), buf.data(), PAGE_SIZE);
}

std::vector<std::uint8_t>
Dsm::readFrame(PageNum frame) const
{
    std::vector<std::uint8_t> buf(PAGE_SIZE);
    _kernel.mem().read(pageBase(frame), buf.data(), PAGE_SIZE);
    return buf;
}

Addr
Dsm::windowVaddr(std::uint32_t page) const
{
    return baseVaddr + Addr{page} * PAGE_SIZE;
}

} // namespace shrimp
