#include "core/system.hh"

#include "sim/logging.hh"

namespace shrimp
{

ShrimpSystem::ShrimpSystem(const SystemConfig &cfg) : _cfg(cfg)
{
    if (cfg.traceEnabled) {
        _tracer = std::make_unique<trace::Tracer>();
        _eq.setTracer(_tracer.get());
    }

    _backplane = std::make_unique<MeshBackplane>(
        _eq, "mesh", cfg.meshWidth, cfg.meshHeight, cfg.router);
    if (cfg.linkFaults.any())
        _backplane->setLinkFaults(cfg.linkFaults);

    for (NodeId id = 0; id < cfg.numNodes(); ++id)
        _nodes.push_back(std::make_unique<Node>(_eq, id, cfg,
                                                *_backplane));

    // Each kernel service opened its links toward every peer when it
    // was built; the DSM's open when it is enabled.
    for (auto &node : _nodes) {
        node->kernel.setAdmission(cfg.admission);
        if (cfg.dsm.enabled)
            node->kernel.enableDsm(cfg.dsm);
    }

    // Wire every node pair's links, matched in the order both kernels
    // opened them (the real machine does this during coordinated boot).
    for (NodeId a = 0; a < cfg.numNodes(); ++a) {
        for (NodeId b = a + 1; b < cfg.numNodes(); ++b)
            _nodes[a]->kernel.wireLinks(_nodes[b]->kernel);
    }

    if (cfg.health.enabled) {
        for (auto &node : _nodes)
            node->kernel.enableHealth(cfg.health);
    }

    for (auto &node : _nodes) {
        _statRoots.insert(_statRoots.end(),
                          {&node->bus.statGroup(), &node->eisa.statGroup(),
                           &node->cache.statGroup(),
                           &node->cpu.statGroup(), &node->ni.statGroup(),
                           &node->ni.outgoingFifo().statGroup(),
                           &node->ni.incomingFifo().statGroup(),
                           &node->ni.dma().statGroup(),
                           &node->kernel.statGroup()});
    }
    for (NodeId id = 0; id < numNodes(); ++id)
        _statRoots.push_back(&_backplane->router(id).statGroup());
}

void
ShrimpSystem::crashNode(NodeId id)
{
    Node &n = node(id);
    if (n.kernel.crashed())
        return;
    n.kernel.crash();
    n.ni.setCrashed(true);
}

void
ShrimpSystem::restartNode(NodeId id)
{
    Node &n = node(id);
    if (!n.kernel.crashed())
        return;
    n.ni.setCrashed(false);
    n.kernel.restart();
}

unsigned
ShrimpSystem::partition(const std::vector<NodeId> &a,
                        const std::vector<NodeId> &b)
{
    for (NodeId x : a) {
        for (NodeId y : b) {
            SHRIMP_ASSERT(x != y, "node ", x,
                          " on both sides of the partition");
        }
    }
    auto cut = [this](NodeId from, NodeId to) {
        Router::Port port = _backplane->portToward(from, to);
        _backplane->router(from).setLinkDead(port, true);
        _backplane->router(from).forceLinkDown(port);
        _cutLinks.emplace_back(from, port);
    };
    unsigned links = 0;
    for (NodeId x : a) {
        for (NodeId y : b) {
            if (_backplane->hopDistance(x, y) != 1)
                continue;
            cut(x, y);
            cut(y, x);
            links += 2;
        }
    }
    return links;
}

void
ShrimpSystem::heal()
{
    for (auto [node, port] : _cutLinks) {
        _backplane->router(node).setLinkDead(port, false);
        _backplane->router(node).forceLinkUp(port);
    }
    _cutLinks.clear();
}

void
ShrimpSystem::startAll()
{
    for (auto &node : _nodes)
        node->kernel.start();
}

bool
ShrimpSystem::runUntilAllExited(Tick max_time, std::uint64_t max_events)
{
    Tick deadline = _eq.curTick() + max_time;
    std::uint64_t processed = 0;
    while (processed < max_events) {
        auto all_done = [this] {
            for (auto &node : _nodes) {
                if (!node->kernel.allProcessesExited())
                    return false;
            }
            return true;
        };
        if (all_done())
            return true;
        if (_eq.empty() || _eq.curTick() > deadline)
            return all_done();
        _eq.runOne();
        ++processed;
    }
    SHRIMP_WARN("runUntilAllExited hit the event cap");
    return false;
}

void
ShrimpSystem::runFor(Tick duration)
{
    _eq.runUntil(_eq.curTick() + duration);
}

void
ShrimpSystem::dumpStats(std::ostream &os) const
{
    for (const stats::Group *g : _statRoots)
        g->dump(os);
}

void
ShrimpSystem::dumpStatsJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const stats::Group *g : _statRoots)
        g->dumpJsonInto(os, first);
    os << "\n}\n";
}

stats::Snapshot
ShrimpSystem::snapshot() const
{
    stats::Snapshot snap;
    for (const stats::Group *g : _statRoots)
        g->snapshotInto(snap);
    return snap;
}

} // namespace shrimp
