/**
 * @file
 * Ablation A4: characterization of the routing backplane substrate
 * (the Paragon-style mesh of Section 3). Not a paper table, but the
 * properties the paper's numbers implicitly depend on:
 *
 *  - base per-hop latency under zero load (cut-through: header
 *    latency per hop, serialization paid once);
 *  - random uniform traffic: delivered bandwidth and mean latency as
 *    offered load rises toward saturation;
 *  - mesh size scaling.
 */

#include <memory>
#include <vector>

#include "experiments.hh"
#include "net/backplane.hh"
#include "sim/random.hh"

namespace shrimp
{
namespace
{

/** Uniform random traffic at a given per-node injection interval. */
void
runUniformTraffic(claims::Metrics &m, unsigned w, unsigned h,
                  Tick inject_interval, unsigned packets_per_node,
                  unsigned payload)
{
    EventQueue eq;
    Router::Params params;
    MeshBackplane mesh(eq, "mesh", w, h, params);
    unsigned n = w * h;

    struct Sink : NetworkSink
    {
        EventQueue *eq;
        std::uint64_t count = 0;
        std::uint64_t bytes = 0;
        Tick latencySum = 0;
        Tick lastAt = 0;
        bool sinkReady() const override { return true; }
        void
        sinkDeliver(NetPacket &&p) override
        {
            ++count;
            bytes += p.payload.size();
            latencySum += eq->curTick() - p.injectedAt;
            lastAt = eq->curTick();
        }
    };
    std::vector<Sink> sinks(n);
    for (NodeId i = 0; i < n; ++i) {
        sinks[i].eq = &eq;
        mesh.router(i).setSink(&sinks[i]);
    }

    Rng rng(0xbeef + w * 31 + h);
    struct Source
    {
        unsigned left;
        Tick next;
    };
    std::vector<Source> sources(n);
    for (auto &s : sources)
        s = {packets_per_node, 0};

    EventFunctionWrapper pump(
        [&] {
            Tick now = eq.curTick();
            Tick next_wake = MAX_TICK;
            for (NodeId i = 0; i < n; ++i) {
                Source &s = sources[i];
                if (s.left == 0)
                    continue;
                if (s.next <= now && mesh.router(i).injectReady()) {
                    NodeId dst = static_cast<NodeId>(rng.below(n));
                    NetPacket pkt;
                    pkt.srcNode = i;
                    pkt.dstNode = dst;
                    pkt.dstX =
                        static_cast<std::uint16_t>(mesh.xOf(dst));
                    pkt.dstY =
                        static_cast<std::uint16_t>(mesh.yOf(dst));
                    pkt.dstPaddr = 0x1000;
                    pkt.payload.assign(payload, 0x5a);
                    pkt.sealCrc();
                    pkt.injectedAt = now;
                    mesh.router(i).inject(std::move(pkt));
                    --s.left;
                    s.next = now + inject_interval;
                }
                if (s.left) {
                    Tick cand = s.next > now ? s.next : now + ONE_US;
                    if (cand < next_wake)
                        next_wake = cand;
                }
            }
            if (next_wake != MAX_TICK)
                eq.schedule(&pump, next_wake);
        },
        "pump");
    eq.schedule(&pump, 0);
    eq.run(500'000'000);

    std::uint64_t count = 0, bytes = 0;
    Tick lat = 0, last = 0;
    for (const Sink &s : sinks) {
        count += s.count;
        bytes += s.bytes;
        lat += s.latencySum;
        last = s.lastAt > last ? s.lastAt : last;
    }
    m["delivered"] = count;
    m["mean_latency_us"] =
        count ? static_cast<double>(lat) / count / ONE_US : 0.0;
    m["delivered_MBps"] =
        last ? bytes / (static_cast<double>(last) / ONE_SEC) / 1e6 : 0.0;
}

/** Cut-through latency of one packet @p hops east on an idle row. */
double
zeroLoadLatencyUs(unsigned hops)
{
    EventQueue eq;
    Router::Params params;
    MeshBackplane mesh(eq, "mesh", 8, 1, params);

    struct Sink : NetworkSink
    {
        EventQueue *eq;
        Tick at = 0;
        bool sinkReady() const override { return true; }
        void sinkDeliver(NetPacket &&) override { at = eq->curTick(); }
    };
    std::vector<Sink> sinks(8);
    for (NodeId i = 0; i < 8; ++i) {
        sinks[i].eq = &eq;
        mesh.router(i).setSink(&sinks[i]);
    }

    NetPacket pkt;
    pkt.srcNode = 0;
    pkt.dstNode = hops;
    pkt.dstX = static_cast<std::uint16_t>(hops);
    pkt.dstY = 0;
    pkt.dstPaddr = 0x1000;
    pkt.payload.assign(8, 1);
    pkt.sealCrc();
    Tick t0 = eq.curTick();
    pkt.injectedAt = t0;
    mesh.router(0).inject(std::move(pkt));
    eq.run();
    return static_cast<double>(sinks[hops].at - t0) / ONE_US;
}

} // namespace

void
experiments::mesh(claims::Rows &rows)
{
    // Cut-through: ~50 ns per hop plus one serialization.
    for (unsigned hops = 1; hops <= 7; ++hops) {
        claims::newRow(rows, "Mesh_ZeroLoadLatencyByHops/" +
                                 std::to_string(hops))["sim_latency_us"] =
            zeroLoadLatencyUs(hops);
    }
    // Offered load sweep toward saturation. 128B+18B at 80 MB/s is
    // ~1.8 us per packet per link.
    for (Tick ns : {40000, 10000, 4000, 2000, 1000}) {
        runUniformTraffic(
            claims::newRow(rows, "Mesh_UniformLoadSweep/" +
                                     std::to_string(ns)),
            4, 4, ns * ONE_NS, 100, 128);
    }
    // The same offered load per node on a growing machine.
    for (unsigned side : {2u, 4u, 8u}) {
        runUniformTraffic(
            claims::newRow(rows, "Mesh_SizeScaling/" +
                                     std::to_string(side)),
            side, side, 5 * ONE_US, 100, 128);
    }
}

} // namespace shrimp
