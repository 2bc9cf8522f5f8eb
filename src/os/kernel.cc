#include "os/kernel.hh"

#include <string_view>

#include "os/dsm.hh"
#include "os/map_manager.hh"
#include "os/nx_service.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

const char *
procStateName(ProcState s)
{
    switch (s) {
      case ProcState::READY: return "ready";
      case ProcState::RUNNING: return "running";
      case ProcState::BLOCKED: return "blocked";
      case ProcState::EXITED: return "exited";
    }
    return "unknown";
}

Kernel::Kernel(EventQueue &eq, std::string name, NodeId node,
               unsigned num_nodes, Cpu &cpu, MainMemory &mem,
               XpressBus &bus, ShrimpNi &ni, const Costs &costs)
    : SimObject(eq, std::move(name)),
      _node(node),
      _numNodes(num_nodes),
      _cpu(cpu),
      _mem(mem),
      _bus(bus),
      _ni(ni),
      _costs(costs),
      _frames(1, mem.numPages()),   // frame 0 reserved (null page)
      _quantumEvent([this] { quantumExpired(); }, "quantum"),
      _stats(this->name())
{
    _cpu.setTrapHandler(this);
    _ni.onArrival = [this](PageNum page, Addr) {
        _cpu.postInterrupt(
            [this, page](Tick now) { return arrivalHandler(page, now); });
    };
    _ni.onOutFifoAboveThreshold = [this] { outFifoFull(); };
    _ni.onOutFifoDrained = [this] { outFifoDrained(); };
    _ni.onMappingError = [this](NodeId dst) {
        // The NI's reliability layer gave up on dst (and warned): record
        // it so user-visible state (peerFailed) reflects the degradation
        // instead of data silently vanishing.
        _failedPeers.insert(dst);
        // Retry-cap exhaustion is hard failure evidence: feed it to
        // the detector so full teardown runs via the peerDead hook.
        if (_health)
            _health->reportPeerFailure(dst);
    };

    _mapManager = std::make_unique<MapManager>(*this);
    _nxService = std::make_unique<NxService>(*this);
}

Kernel::~Kernel()
{
    // Release mapping pins before process address spaces return their
    // frames to the allocator.
    _mapManager->releaseAllPins();
}

// ---------------------------------------------------------------------
// Processes and scheduling
// ---------------------------------------------------------------------

Process *
Kernel::createProcess(const std::string &name)
{
    auto proc = std::make_unique<Process>(_nextPid++, name, _frames);
    proc->state = ProcState::BLOCKED;   // until a program is loaded
    Process *raw = proc.get();
    _processes.push_back(std::move(proc));
    return raw;
}

Process *
Kernel::findProcess(Pid pid)
{
    for (auto &proc : _processes) {
        if (proc->pid() == pid)
            return proc.get();
    }
    return nullptr;
}

void
Kernel::loadAndReady(Process &proc,
                     std::shared_ptr<const Program> program,
                     std::size_t stack_pages)
{
    SHRIMP_ASSERT(program->finalized(), "program not finalized");
    Addr stack_base = proc.allocate(stack_pages);
    proc.load(std::move(program),
              stack_base + stack_pages * PAGE_SIZE);
    proc.state = ProcState::READY;
    _readyQueue.push_back(&proc);
}

void
Kernel::start()
{
    if (_running)
        return;
    auto t = scheduleNext(curTick());
    if (t)
        _cpu.resumeAt(*t);
}

bool
Kernel::allProcessesExited() const
{
    for (const auto &proc : _processes) {
        if (proc->state != ProcState::EXITED)
            return false;
    }
    return true;
}

std::optional<Tick>
Kernel::scheduleNext(Tick now)
{
    for (auto it = _readyQueue.begin(); it != _readyQueue.end();) {
        Process *next = *it;
        if (next->state != ProcState::READY) {
            it = _readyQueue.erase(it);
            continue;
        }
        if (_schedPolicy == SchedPolicy::GANG &&
            next->gangId != _currentGang) {
            ++it;   // stays queued until its gang's epoch
            continue;
        }
        _readyQueue.erase(it);
        next->state = ProcState::RUNNING;
        _running = next;
        _cpu.setContext(&next->ctx);
        ++_switches;
        armQuantum(*next);
        return now + charge(&next->ctx, _costs.contextSwitch);
    }
    _running = nullptr;
    _cpu.setContext(nullptr);
    return std::nullopt;
}

void
Kernel::setCurrentGang(std::uint32_t gang)
{
    if (_currentGang == gang)
        return;
    _currentGang = gang;

    if (_running && _running->gangId != gang) {
        // Preempt at the next instruction boundary.
        _cpu.postInterrupt([this](Tick now) {
            if (!_running || _running->gangId == _currentGang)
                return now;
            Process *prev = _running;
            prev->state = ProcState::READY;
            _readyQueue.push_back(prev);
            _running = nullptr;
            auto t = scheduleNext(now);
            return t ? *t : now;
        });
    } else if (!_running && !_stalledOnOutFifo) {
        auto t = scheduleNext(curTick());
        if (t)
            _cpu.resumeAt(*t);
    }
}

void
Kernel::blockCurrent(ExecContext &ctx)
{
    Process &proc = processOf(ctx);
    SHRIMP_ASSERT(_running == &proc, "blockCurrent on a non-running "
                  "process '", proc.name(), "'");
    proc.state = ProcState::BLOCKED;
    _running = nullptr;
}

void
Kernel::makeReady(Process &proc)
{
    if (proc.state == ProcState::EXITED)
        return;
    if (proc.state == ProcState::READY ||
        proc.state == ProcState::RUNNING) {
        return;
    }
    proc.state = ProcState::READY;
    _readyQueue.push_back(&proc);
    // No dispatch while crashed: a deferred completion (e.g. a DSM
    // fault resolving during the outage) must not restart the CPU.
    if (!_running && !_stalledOnOutFifo && !_crashed) {
        auto t = scheduleNext(curTick());
        if (t)
            _cpu.resumeAt(*t);
    }
}

Process &
Kernel::processOf(ExecContext &ctx)
{
    Process *proc = findProcess(ctx.pid);
    SHRIMP_ASSERT(proc, "no process for pid ", ctx.pid);
    return *proc;
}

Tick
Kernel::charge(ExecContext *ctx, std::uint64_t instructions)
{
    return _cpu.chargeKernel(ctx, instructions);
}

void
Kernel::reapProcess(Process &proc)
{
    // Exited processes keep their memory and mappings (a receiver may
    // halt while data is still in flight to it); reaping is the
    // explicit teardown. Outgoing mappings die immediately; frames
    // that remote senders still target get the Section 4.4 shootdown
    // so those senders fault, and their remap attempts are refused
    // because the process is reaped.
    proc.state = ProcState::EXITED;
    proc.ctx.halted = true;
    proc.reaped = true;

    std::vector<PageNum> victims =
        _mapManager->cleanupProcess(proc.pid());
    for (PageNum frame : victims) {
        _mapManager->shootdown(frame, [this, frame] {
            _mapManager->releaseInMappings(frame);
        });
    }
}

void
Kernel::armQuantum(Process &proc)
{
    _quantumTarget = &proc;
    reschedule(_quantumEvent, curTick() + _costs.quantum);
}

void
Kernel::quantumExpired()
{
    if (!_running || _running != _quantumTarget)
        return;
    if (_readyQueue.empty()) {
        armQuantum(*_running);      // nothing to switch to
        return;
    }
    _cpu.postInterrupt([this](Tick now) {
        if (!_running || _readyQueue.empty())
            return now;
        Process *prev = _running;
        prev->state = ProcState::READY;
        _readyQueue.push_back(prev);
        _running = nullptr;
        auto t = scheduleNext(now);
        return t ? *t : now;
    });
}

// ---------------------------------------------------------------------
// Interrupts and flow control
// ---------------------------------------------------------------------

Tick
Kernel::arrivalHandler(PageNum page, Tick now)
{
    ++_interruptCount;
    std::uint64_t work = _costs.arrivalInterrupt;

    auto route = _linkRoutes.find(page);
    if (route != _linkRoutes.end()) {
        work += route->second.handler->handleArrival(route->second.peer);
    } else {
        // User page: count the arrival and wake WAIT_ARRIVAL waiters.
        std::uint64_t count = ++_arrivalCount[page];
        auto it = _arrivalWaiters.find(page);
        if (it != _arrivalWaiters.end()) {
            for (Process *proc : it->second) {
                proc->ctx.regs[R0] = count;
                makeReady(*proc);
            }
            it->second.clear();
        }
    }
    return now + charge(nullptr, work);
}

std::uint64_t
Kernel::arrivalCount(PageNum frame) const
{
    auto it = _arrivalCount.find(frame);
    return it == _arrivalCount.end() ? 0 : it->second;
}

void
Kernel::outFifoFull()
{
    // Section 4: "If the Outgoing FIFO becomes full ... the CPU is
    // interrupted and waits until the FIFO drains."
    if (_stalledOnOutFifo)
        return;
    _stalledOnOutFifo = true;
    _stallStart = curTick();
    ++_fifoStalls;
    _cpu.suspend();
}

void
Kernel::outFifoDrained()
{
    if (!_stalledOnOutFifo)
        return;
    _stalledOnOutFifo = false;
    _fifoStallTicks += curTick() - _stallStart;
    if (_cpu.context() && !_cpu.context()->halted) {
        _cpu.resumeAt(curTick());
    } else if (!_running) {
        auto t = scheduleNext(curTick());
        if (t)
            _cpu.resumeAt(*t);
    }
}

// ---------------------------------------------------------------------
// Kernel links
// ---------------------------------------------------------------------

PageNum
Kernel::allocPinnedFrame(const char *what)
{
    auto f = _frames.alloc();
    if (!f) {
        SHRIMP_PANIC("node ", _node, " is out of DRAM frames for ", what,
                     ": it has ", _frames.numFrames(), " frames of ",
                     PAGE_SIZE, " B, and boot pins frames for each of its ",
                     _numNodes - 1, " peers; raise "
                     "SystemConfig::memBytesPerNode");
    }
    _frames.pin(*f);
    return *f;
}

KernelLink
Kernel::openLink(NodeId peer, UpdateMode mode, const char *what,
                 LinkHandler *on_arrival)
{
    SHRIMP_ASSERT(peer < _numNodes && peer != _node, "node ", _node,
                  ": link toward bad peer ", peer);
    KernelLink link;
    link.in = allocPinnedFrame(what);
    link.out = allocPinnedFrame(what);
    NiptEntry &e = _ni.nipt().entry(link.in);
    e.mappedIn = true;
    e.interruptOnArrival = on_arrival != nullptr;
    if (on_arrival)
        _linkRoutes.emplace(link.in, LinkRoute{on_arrival, peer});
    _unwired[peer].push_back(UnwiredLink{link, mode, what});
    return link;
}

void
Kernel::wireLinks(Kernel &peer)
{
    std::vector<UnwiredLink> mine, theirs;
    if (auto entry = _unwired.extract(peer._node))
        mine = std::move(entry.mapped());
    if (auto entry = peer._unwired.extract(_node))
        theirs = std::move(entry.mapped());
    if (mine.size() != theirs.size()) {
        SHRIMP_PANIC("node ", _node, " opened ", mine.size(),
                     " kernel links toward node ", peer._node, ", but node ",
                     peer._node, " opened ", theirs.size(), " toward node ",
                     _node);
    }
    for (std::size_t i = 0; i < mine.size(); ++i) {
        if (mine[i].mode != theirs[i].mode ||
            std::string_view(mine[i].what) != theirs[i].what) {
            SHRIMP_PANIC("kernel link ", i, " between node ", _node,
                         " and node ", peer._node, " is '", mine[i].what,
                         "' on node ", _node, " but '", theirs[i].what,
                         "' on node ", peer._node);
        }
        _ni.nipt().entry(mine[i].link.out).outLow =
            OutMapping{mine[i].mode, peer._node, theirs[i].link.in};
        peer._ni.nipt().entry(theirs[i].link.out).outLow =
            OutMapping{theirs[i].mode, _node, mine[i].link.in};
    }
}

void
Kernel::writeLinkWord(const KernelLink &link, Addr offset,
                      std::uint32_t value)
{
    charge(nullptr, _costs.channelWordWrite);
    _bus.postWrite(pageBase(link.out) + offset, &value, 4, BusMaster::CPU,
                   curTick());
}

std::uint32_t
Kernel::readLinkWord(const KernelLink &link, Addr offset) const
{
    return static_cast<std::uint32_t>(
        _mem.readInt(pageBase(link.in) + offset, 4));
}

void
Kernel::enableDsm(const DsmConfig &cfg)
{
    if (!_dsm)
        _dsm = std::make_unique<Dsm>(*this, cfg);
}

// ---------------------------------------------------------------------
// Liveness and node-failure recovery
// ---------------------------------------------------------------------

void
Kernel::enableHealth(const HealthParams &params)
{
    if (_health)
        return;
    SHRIMP_ASSERT(_ni.reliabilityEnabled(),
                  "node ", _node, ": health needs the NI reliability "
                  "layer; set ni.reliability.enabled with "
                  "health.enabled");
    _health = std::make_unique<HealthMonitor>(*this, params);
    _ni.onHeartbeat = [this](NodeId src, std::uint64_t stamp) {
        _health->heartbeatFrom(src, stamp);
    };
    _ni.startNewEpoch(_health->selfIncarnation());
    _health->start();
}

std::uint32_t
Kernel::selfIncarnation() const
{
    return _health ? _health->selfIncarnation() : 1;
}

std::uint32_t
Kernel::peerIncarnation(NodeId peer) const
{
    return _health ? _health->peerIncarnation(peer) : 0;
}

void
Kernel::selfEpochBumped(std::uint32_t inc)
{
    // Our old life's streams must not interleave with the new ones,
    // and grants we hold from before the bump are void.
    _ni.startNewEpoch(inc);
    if (_dsm)
        _dsm->fenceSelf();
}

void
Kernel::peerEpochChanged(NodeId peer, std::uint32_t inc)
{
    if (peer == _node || peer >= _numNodes)
        return;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "kernel", "peerEpochChanged",
                   {trace::arg("peer",
                               static_cast<std::uint64_t>(peer)),
                    trace::arg("inc",
                               static_cast<std::uint64_t>(inc))});
    }
    // RPCs addressed to the peer's previous life can never complete;
    // doom them with err::STALE_EPOCH and restart both the RPC engine
    // and the reliability channel so new-life traffic starts clean.
    _mapManager->resetPeer(peer, err::STALE_EPOCH);
    _ni.resetChannel(peer);
    _mapManager->clearChannelIn(peer);
    if (_dsm)
        _dsm->peerEpochChanged(peer, inc);
}

bool
Kernel::sendAdmissible(NodeId peer) const
{
    if (!_admission.enabled)
        return true;
    // A SUSPECT peer usually becomes DEAD; admitting sends toward it
    // just grows queues that peerDied() will have to error out.
    if (_health && _health->peerState(peer) != PeerHealth::ALIVE)
        return false;
    if (_admission.windowFullAfter > 0 && _ni.reliabilityEnabled()) {
        Tick full_since =
            _ni.retransmitBuffer().windowFullSince(peer);
        if (full_since != 0 &&
            curTick() - full_since >= _admission.windowFullAfter) {
            return false;
        }
    }
    return true;
}

void
Kernel::peerDied(NodeId peer)
{
    if (peer == _node || peer >= _numNodes)
        return;
    _failedPeers.insert(peer);
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "kernel", "peerDied",
                   {trace::arg("peer",
                               static_cast<std::uint64_t>(peer))});
    }
    // Error outgoing halves + abort DMA toward the peer, then stop
    // tracking what it had mapped into us, and fail any kernel RPCs
    // still waiting on it so blocked map()/unmap() callers wake up.
    _ni.declarePeerDead(peer);
    _mapManager->purgeDeadPeerIn(peer);
    _mapManager->resetPeer(peer);
    if (_dsm)
        _dsm->peerDied(peer);
}

void
Kernel::peerRecovered(NodeId peer)
{
    if (peer == _node || peer >= _numNodes)
        return;
    _failedPeers.erase(peer);
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "kernel", "peerRecovered",
                   {trace::arg("peer",
                               static_cast<std::uint64_t>(peer))});
    }
    // User mappings toward the peer died with it; the application
    // must re-map. Kernel links are permanent boot state, so heal
    // those halves in place and restart both protocol engines from
    // sequence zero to match the peer's fresh state.
    _mapManager->purgeOutTo(peer);
    _mapManager->resetPeer(peer);
    _ni.markMappingsToward(peer, false);
    _ni.resetChannel(peer);
    _mapManager->clearChannelIn(peer);
    if (_dsm)
        _dsm->peerRecovered(peer);
}

void
Kernel::crash()
{
    if (_crashed)
        return;
    _crashed = true;
    ++_crashes;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "kernel", "nodeCrash", {});
    }
    if (_health)
        _health->pause();
    if (_quantumEvent.scheduled())
        deschedule(_quantumEvent);
    _quantumTarget = nullptr;
    if (_running) {
        // Park it; memory survives the crash in this model, so the
        // process resumes from the same PC after restart.
        _running->state = ProcState::READY;
        _readyQueue.push_back(_running);
        _running = nullptr;
    }
    _stalledOnOutFifo = false;
    _cpu.setContext(nullptr);
    _cpu.suspend();
}

void
Kernel::restart()
{
    if (!_crashed)
        return;
    _crashed = false;
    ++_restarts;
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "kernel", "nodeRestart", {});
    }
    // Whatever protocol state predates the crash is garbage now: fail
    // in-flight RPCs and restart every peer channel from scratch.
    for (NodeId peer = 0; peer < _numNodes; ++peer) {
        if (peer == _node)
            continue;
        _mapManager->resetPeer(peer);
        _mapManager->clearChannelIn(peer);
    }
    if (_dsm)
        _dsm->reset();
    if (_health)
        _health->resume();
    auto t = scheduleNext(curTick());
    if (t)
        _cpu.resumeAt(*t);
}

// ---------------------------------------------------------------------
// Direct (host-level) mapping
// ---------------------------------------------------------------------

std::uint64_t
Kernel::mapDirect(Process &src_proc, Addr src_vaddr, std::size_t npages,
                  Kernel &dst_kernel, Process &dst_proc, Addr dst_vaddr,
                  UpdateMode mode, bool arrival_interrupt)
{
    return mapDirectRange(src_proc, src_vaddr, npages * PAGE_SIZE,
                          dst_kernel, dst_proc, dst_vaddr, mode,
                          arrival_interrupt);
}

std::uint64_t
Kernel::mapDirectRange(Process &src_proc, Addr src_vaddr, Addr nbytes,
                       Kernel &dst_kernel, Process &dst_proc,
                       Addr dst_vaddr, UpdateMode mode,
                       bool arrival_interrupt)
{
    SHRIMP_ASSERT(nbytes > 0, "empty mapping");

    if (peerFailed(dst_kernel.nodeId()) || dst_kernel.crashed())
        return err::HOSTDOWN;

    if (!sendAdmissible(dst_kernel.nodeId())) {
        countSendRejected();
        return err::WOULDBLOCK;
    }

    // The whole walk is synchronous, so a B/E span brackets it
    // exactly; the args record what was asked, not what succeeded.
    trace::Tracer *tracer = eventQueue().tracer();
    if (tracer) {
        tracer->begin(
            curTick(), name(), "kernel", "mapDirectRange",
            {trace::arg("srcVaddr", src_vaddr),
             trace::arg("nbytes", nbytes),
             trace::arg("dstNode", static_cast<std::uint64_t>(
                                       dst_kernel.nodeId()))});
    }

    // Walk the source range page by page; each source page
    // contributes one mapping half per destination page it touches
    // (at most two, the paper's split-page limit).
    std::uint64_t result = [&]() -> std::uint64_t {
    Addr src_end = src_vaddr + nbytes;
    Addr cursor = src_vaddr;
    while (cursor < src_end) {
        PageNum src_vpage = pageOf(cursor);
        Addr page_limit = pageBase(src_vpage) + PAGE_SIZE;

        Pte *src_pte = src_proc.space().pageTable().find(src_vpage);
        if (!src_pte || !src_pte->writable)
            return err::PERM;

        // The half extends to the source page end, the range end, or
        // the next destination page boundary, whichever is first.
        Addr dv = dst_vaddr + (cursor - src_vaddr);
        Addr dst_page_limit = pageBase(pageOf(dv)) + PAGE_SIZE;
        Addr half_end = page_limit;
        if (src_end < half_end)
            half_end = src_end;
        if (cursor + (dst_page_limit - dv) < half_end)
            half_end = cursor + (dst_page_limit - dv);

        PageNum dst_vpage = pageOf(dv);
        Pte *dst_pte = dst_proc.space().pageTable().find(dst_vpage);
        if (!dst_pte || !dst_pte->writable)
            return err::PERM;

        // The hardware supports at most two mapping halves per page
        // (Section 3.2); refuse anything that does not fit the page's
        // remaining slot.
        if (!_mapManager->canInstallHalf(src_pte->frame,
                                         pageOffset(cursor),
                                         half_end -
                                             pageBase(src_vpage))) {
            return err::AGAIN;
        }

        // Receiver side.
        MapManager::InRecord in_rec;
        in_rec.pid = dst_proc.pid();
        in_rec.vpage = dst_vpage;
        in_rec.srcNode = _node;
        in_rec.flags =
            arrival_interrupt ? map_flags::ARRIVAL_INTERRUPT : 0;
        in_rec.pinned = dst_kernel.consistencyPolicy() ==
                        ConsistencyPolicy::PIN;
        dst_kernel.mapManager().recordInDirect(in_rec, dst_pte->frame,
                                               arrival_interrupt);

        // Source side.
        MapManager::OutRecord out_rec;
        out_rec.pid = src_proc.pid();
        out_rec.vpage = src_vpage;
        out_rec.halfBegin = pageOffset(cursor);
        out_rec.halfEnd = half_end - pageBase(src_vpage);
        out_rec.dstDelta = static_cast<std::int32_t>(
            static_cast<std::int64_t>(pageOffset(dv)) -
            static_cast<std::int64_t>(pageOffset(cursor)));
        out_rec.dstNode = dst_kernel.nodeId();
        out_rec.dstPid = dst_proc.pid();
        out_rec.dstVpage = dst_vpage;
        out_rec.dstFrame = dst_pte->frame;
        out_rec.mode = mode;
        out_rec.flags = in_rec.flags;
        _mapManager->recordOutDirect(out_rec, src_pte->frame);

        // Mapped-out pages must be write-through so the NI snoops
        // every store (Section 2).
        src_pte->policy = CachePolicy::WRITE_THROUGH;

        cursor = half_end;
    }
    return err::OK;
    }();

    if (tracer) {
        tracer->end(curTick(), name(), "kernel", "mapDirectRange",
                    {trace::arg("err", result)});
    }
    return result;
}

Addr
Kernel::mapCommandPages(Process &proc, Addr vaddr, std::size_t npages)
{
    std::vector<PageNum> cmd_frames;
    cmd_frames.reserve(npages);
    for (std::size_t i = 0; i < npages; ++i) {
        Pte *pte =
            proc.space().pageTable().find(pageOf(vaddr) + i);
        SHRIMP_ASSERT(pte, "command window over unmapped page");
        cmd_frames.push_back(_ni.cmdPageFor(pte->frame));
    }
    return proc.space().mapPhysicalScatter(
        cmd_frames, CachePolicy::UNCACHEABLE, true);
}

// ---------------------------------------------------------------------
// Paging
// ---------------------------------------------------------------------

void
Kernel::evictUserPage(Process &proc, Addr vaddr,
                      std::function<void(bool)> done)
{
    PageNum vpage = pageOf(vaddr);
    Pte *pte = proc.space().pageTable().find(vpage);
    if (!pte) {
        done(false);
        return;
    }
    PageNum frame = pte->frame;

    bool has_in = _mapManager->hasInMappings(frame);
    if (_consistency == ConsistencyPolicy::PIN &&
        (has_in || _frames.isPinned(frame))) {
        // The simple policy: mapped-in pages are pinned, never paged.
        done(false);
        return;
    }
    if (_frames.isPinned(frame)) {
        done(false);    // kernel page or otherwise wired
        return;
    }

    Pid pid = proc.pid();
    auto proceed = [this, &proc, pid, vpage, frame,
                    done = std::move(done)]() {
        charge(nullptr, _costs.pageSwap);

        Pte *pte2 = proc.space().pageTable().find(vpage);
        SHRIMP_ASSERT(pte2 && pte2->frame == frame,
                      "page moved during shootdown");

        SwapEntry entry;
        entry.data.resize(PAGE_SIZE);
        _mem.read(pageBase(frame), entry.data.data(), PAGE_SIZE);
        entry.pte = *pte2;
        _swap[{pid, vpage}] = std::move(entry);

        _mapManager->frameDropped(frame);
        proc.space().pageTable().unmap(vpage);
        proc.space().forgetFrame(frame);
        _frames.free(frame);
        ++_pageEvictions;
        done(true);
    };

    if (has_in) {
        // INVALIDATE policy: shoot down remote NIPT entries first.
        Tick t0 = curTick();
        if (auto *t = eventQueue().tracer()) {
            t->instant(t0, name(), "kernel", "shootdownRequest",
                       {trace::arg("frame",
                                   static_cast<std::uint64_t>(frame))});
        }
        _mapManager->shootdown(
            frame, [this, t0, frame,
                    proceed = std::move(proceed)]() mutable {
                // The shootdown round-trips the mesh; render it as a
                // complete span from request to the all-acked call.
                if (auto *t = eventQueue().tracer()) {
                    t->complete(
                        t0, curTick(), name(), "kernel", "shootdown",
                        {trace::arg("frame",
                                    static_cast<std::uint64_t>(frame))});
                }
                proceed();
            });
    } else {
        proceed();
    }
}

std::uint64_t
Kernel::pageIn(Process &proc, PageNum vpage)
{
    auto it = _swap.find({proc.pid(), vpage});
    if (it == _swap.end())
        return err::INVAL;

    auto frame = _frames.alloc();
    if (!frame)
        return err::NOMEM;

    SwapEntry &entry = it->second;
    _mem.write(pageBase(*frame), entry.data.data(), PAGE_SIZE);
    Pte pte = entry.pte;
    pte.frame = *frame;
    proc.space().pageTable().map(vpage, pte);
    proc.space().adoptFrame(*frame);
    _swap.erase(it);

    // Reinstall outgoing NIPT state at the new frame.
    _mapManager->frameMoved(proc.pid(), vpage, *frame);
    ++_pageIns;
    return err::OK;
}

bool
Kernel::inSwap(Pid pid, PageNum vpage) const
{
    return _swap.count({pid, vpage}) != 0;
}

// ---------------------------------------------------------------------
// TrapHandler
// ---------------------------------------------------------------------

bool
Kernel::readUserWords(ExecContext &ctx, Addr vaddr, std::uint32_t *out,
                      unsigned nwords) const
{
    for (unsigned i = 0; i < nwords; ++i) {
        Translation t = ctx.space->translate(vaddr + 4 * i, false);
        if (!t.ok())
            return false;
        out[i] = static_cast<std::uint32_t>(_mem.readInt(t.paddr, 4));
    }
    return true;
}

std::optional<Tick>
Kernel::syscall(ExecContext &ctx, std::uint64_t num, Tick now)
{
    Tick t = now + charge(&ctx, _costs.syscallDispatch);

    switch (num) {
      case sys::EXIT: {
        Process &proc = processOf(ctx);
        proc.state = ProcState::EXITED;
        ctx.halted = true;
        _running = nullptr;
        return scheduleNext(t);
      }

      case sys::YIELD: {
        Process &proc = processOf(ctx);
        if (_readyQueue.empty())
            return t;
        proc.state = ProcState::READY;
        _readyQueue.push_back(&proc);
        _running = nullptr;
        return scheduleNext(t);
      }

      case sys::GETPID:
        ctx.regs[R0] = ctx.pid;
        return t;

      case sys::NODE_ID:
        ctx.regs[R0] = _node;
        return t;

      case sys::MAP:
      case sys::UNMAP:
        return doMapSyscall(ctx, t, num == sys::UNMAP);
      case sys::WAIT_ARRIVAL:
        return doWaitArrival(ctx, t);

      case sys::NX_CSEND:
      case sys::NX_CRECV: {
        std::uint32_t words[5];
        if (!readUserWords(ctx, ctx.regs[R1], words, 5)) {
            ctx.regs[R0] = err::INVAL;
            return t;
        }
        NxArgs args;
        args.type = words[0];
        args.buf = words[1];
        args.nbytes = words[2];
        args.node = words[3];
        args.pid = words[4];
        return num == sys::NX_CSEND ? _nxService->csend(ctx, args, t)
                                    : _nxService->crecv(ctx, args, t);
      }

      default:
        SHRIMP_WARN("unknown syscall ", num, " from '", ctx.name, "'");
        ctx.regs[R0] = err::INVAL;
        return t;
    }
}

std::optional<Tick>
Kernel::doMapSyscall(ExecContext &ctx, Tick now, bool unmap)
{
    std::uint32_t words[7];
    if (!readUserWords(ctx, ctx.regs[R1], words, 7)) {
        ctx.regs[R0] = err::INVAL;
        return now;
    }
    MapArgs args;
    args.localVaddr = words[0];
    args.npages = words[1];
    args.dstNode = words[2];
    args.dstPid = words[3];
    args.dstVaddr = words[4];
    args.mode = words[5];
    args.flags = words[6];

    if (!unmap && args.npages == 0) {
        ctx.regs[R0] = err::INVAL;
        return now;
    }

    Tick t = now + charge(&ctx, _costs.mapValidatePerPage * args.npages);

    Process &proc = processOf(ctx);
    blockCurrent(ctx);
    auto next = scheduleNext(t);

    auto done = [this, &proc](std::uint64_t st) {
        proc.ctx.regs[R0] = st;
        makeReady(proc);
    };
    if (unmap)
        _mapManager->startUnmap(proc, args, std::move(done));
    else
        _mapManager->startMap(proc, args, std::move(done));
    return next;
}

std::optional<Tick>
Kernel::doWaitArrival(ExecContext &ctx, Tick now)
{
    Translation t = ctx.space->translate(ctx.regs[R1], false);
    if (!t.ok()) {
        ctx.regs[R0] = 0;
        return now;
    }
    PageNum frame = pageOf(t.paddr);
    std::uint64_t last_seen = ctx.regs[R2];
    std::uint64_t count = arrivalCount(frame);
    if (count != last_seen) {
        ctx.regs[R0] = count;
        return now;
    }
    Process &proc = processOf(ctx);
    blockCurrent(ctx);
    _arrivalWaiters[frame].push_back(&proc);
    return scheduleNext(now);
}

std::optional<Tick>
Kernel::fault(ExecContext &ctx, FaultKind kind, Addr vaddr, bool write,
              Tick now)
{
    Process &proc = processOf(ctx);
    PageNum vpage = pageOf(vaddr);
    Tick t = now + charge(&ctx, _costs.faultHandler);

    // DSM window: the fault becomes a VMMC transaction. NOT_PRESENT
    // fetches the page; a write PROTECTION fault on a READ_SHARED page
    // is the upgrade path.
    if (_dsm && _dsm->managesFault(proc, vaddr) &&
        (kind == FaultKind::NOT_PRESENT ||
         (kind == FaultKind::PROTECTION && write))) {
        blockCurrent(ctx);
        auto next = scheduleNext(t);
        _dsm->faultOn(proc, vaddr, write,
                      [this, &proc](std::uint64_t status) {
                          if (status == err::OK) {
                              makeReady(proc);
                              return;
                          }
                          SHRIMP_WARN("killing '", proc.name(),
                                      "': DSM fault failed with ",
                                      status);
                          proc.state = ProcState::EXITED;
                          proc.ctx.halted = true;
                      });
        return next;
    }

    if (kind == FaultKind::NOT_PRESENT) {
        if (inSwap(proc.pid(), vpage)) {
            Tick t2 = t + charge(&ctx, _costs.pageSwap);
            std::uint64_t e = pageIn(proc, vpage);
            if (e == err::OK)
                return t2;      // retry the instruction
        }
        SHRIMP_WARN("killing '", proc.name(), "': access to unmapped ",
                    vaddr);
        proc.state = ProcState::EXITED;
        ctx.halted = true;
        _running = nullptr;
        return scheduleNext(t);
    }

    if (kind == FaultKind::PROTECTION && write &&
        _mapManager->needsRemap(proc.pid(), vpage)) {
        // An invalidated mapping (Section 4.4): re-establish it, then
        // retry the store.
        blockCurrent(ctx);
        auto next = scheduleNext(t);
        _mapManager->startRemap(
            proc, vpage, [this, &proc](std::uint64_t status) {
                if (status == err::OK) {
                    makeReady(proc);
                    return;
                }
                // The destination is gone (e.g. its process was
                // reaped): the mapping cannot be re-established.
                SHRIMP_WARN("killing '", proc.name(),
                            "': remap failed with ", status);
                proc.state = ProcState::EXITED;
                proc.ctx.halted = true;
            });
        return next;
    }

    SHRIMP_WARN("killing '", proc.name(), "': protection fault at ",
                vaddr);
    proc.state = ProcState::EXITED;
    ctx.halted = true;
    _running = nullptr;
    return scheduleNext(t);
}

void
Kernel::halted(ExecContext &ctx, Tick now)
{
    Process &proc = processOf(ctx);
    proc.state = ProcState::EXITED;
    _running = nullptr;
    auto t = scheduleNext(now + charge(nullptr, _costs.contextSwitch));
    if (t)
        _cpu.resumeAt(*t);
}

} // namespace shrimp
