/**
 * @file
 * ShrimpSystem: the top-level machine and the library's main entry
 * point. Builds N nodes on a 2-D mesh backplane, boots the kernels
 * (wiring every node pair's kernel links), and drives simulation.
 *
 * Typical use:
 * @code
 *   SystemConfig cfg;               // 2x2 mesh, paper defaults
 *   ShrimpSystem sys(cfg);
 *   Process *a = sys.kernel(0).createProcess("sender");
 *   ...
 *   sys.runUntilAllExited();
 * @endcode
 */

#ifndef SHRIMP_CORE_SYSTEM_HH
#define SHRIMP_CORE_SYSTEM_HH

#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/node.hh"
#include "sim/trace.hh"

namespace shrimp
{

/** A complete simulated SHRIMP multicomputer. */
class ShrimpSystem
{
  public:
    explicit ShrimpSystem(const SystemConfig &cfg = SystemConfig{});

    const SystemConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _eq; }
    Tick curTick() const { return _eq.curTick(); }

    unsigned numNodes() const { return _cfg.numNodes(); }
    Node &node(NodeId id) { return *_nodes.at(id); }
    Kernel &kernel(NodeId id) { return _nodes.at(id)->kernel; }
    MeshBackplane &backplane() { return *_backplane; }

    /** Start scheduling on every node. */
    void startAll();

    /**
     * Power-fail node @p id: its NI drops everything in flight and
     * consumes (discards) arriving packets so the mesh never wedges,
     * its CPU and failure detector stop. With config().health.enabled
     * the peers declare it DEAD within the heartbeat dead timeout and
     * tear down mappings toward it.
     */
    void crashNode(NodeId id);

    /** Power the node back up: fresh NI/protocol state, scheduling
     *  and heartbeats resume; peers recover it on its next keepalive. */
    void restartNode(NodeId id);

    bool nodeCrashed(NodeId id) { return kernel(id).crashed(); }

    /**
     * Partition the machine: cut both directions of every mesh link
     * whose endpoints fall on opposite sides of the {@p a, @p b}
     * split. Each directed link is advertised dead to its router
     * (setLinkDead: route-around exhausts into routeAroundDrops) and
     * cut at the wire (forceLinkDown: committed traffic dies, and the
     * link stays down when a flap's revival clears the advertisement).
     * The sets must be disjoint and, for a total partition, cover all
     * nodes. Cuts accumulate across calls until heal(). @return the
     * number of directed links cut by this call.
     */
    unsigned partition(const std::vector<NodeId> &a,
                       const std::vector<NodeId> &b);

    /** Undo every cut made by partition() and kick parked traffic. */
    void heal();

    /** Are any partition() cuts currently in force? */
    bool partitioned() const { return !_cutLinks.empty(); }

    /**
     * Run until every process on every node has exited, a hard event
     * cap is hit, or time exceeds @p max_time.
     *
     * @return true if all processes exited.
     */
    bool runUntilAllExited(Tick max_time = 10 * ONE_SEC,
                           std::uint64_t max_events = 500'000'000);

    /** Run all events scheduled up to @p when. */
    void runFor(Tick duration);

    /** Dump every component's statistics. */
    void dumpStats(std::ostream &os) const;

    /** Dump every statistic as one flat JSON object keyed by path. */
    void dumpStatsJson(std::ostream &os) const;

    /** Every component's Counters, keyed by stat path. */
    stats::Snapshot snapshot() const;

    /** The event tracer, or nullptr unless config().traceEnabled. */
    trace::Tracer *tracer() { return _tracer.get(); }

  private:
    SystemConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<trace::Tracer> _tracer;
    std::unique_ptr<MeshBackplane> _backplane;
    std::vector<std::unique_ptr<Node>> _nodes;
    /** Every component's stat tree in dump order: each node's bus,
     *  EISA, cache, CPU, NI, FIFOs, DMA and kernel, then the routers. */
    std::vector<const stats::Group *> _statRoots;
    /** Directed links cut by partition(), undone by heal(). */
    std::vector<std::pair<NodeId, Router::Port>> _cutLinks;
};

} // namespace shrimp

#endif // SHRIMP_CORE_SYSTEM_HH
