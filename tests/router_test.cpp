/**
 * @file
 * Unit tests for the mesh backplane: dimension-order routing,
 * latency structure, in-order delivery, credit backpressure, and
 * deadlock-free operation under load.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/backplane.hh"
#include "sim/random.hh"

namespace shrimp
{
namespace
{

/** Collects delivered packets; can throttle to test backpressure. */
struct CollectorSink : NetworkSink
{
    std::vector<NetPacket> got;
    std::vector<Tick> when;
    bool ready = true;
    EventQueue *eq = nullptr;

    bool sinkReady() const override { return ready; }

    void
    sinkDeliver(NetPacket &&pkt) override
    {
        got.push_back(std::move(pkt));
        when.push_back(eq->curTick());
    }
};

struct MeshFixture : ::testing::Test
{
    EventQueue eq;
    Router::Params params;
    std::unique_ptr<MeshBackplane> mesh;
    std::vector<CollectorSink> sinks;

    void
    build(unsigned w, unsigned h)
    {
        mesh = std::make_unique<MeshBackplane>(eq, "mesh", w, h, params);
        sinks.resize(w * h);
        for (NodeId n = 0; n < w * h; ++n) {
            sinks[n].eq = &eq;
            mesh->router(n).setSink(&sinks[n]);
        }
    }

    NetPacket
    makePkt(NodeId src, NodeId dst, std::uint64_t seq,
            std::size_t payload = 8)
    {
        NetPacket pkt;
        pkt.srcNode = src;
        pkt.dstNode = dst;
        pkt.dstX = static_cast<std::uint16_t>(mesh->xOf(dst));
        pkt.dstY = static_cast<std::uint16_t>(mesh->yOf(dst));
        pkt.dstPaddr = 0x1000 + 64 * seq;
        pkt.payload.assign(payload, static_cast<std::uint8_t>(seq));
        pkt.seq = seq;
        pkt.sealCrc();
        pkt.injectedAt = eq.curTick();
        return pkt;
    }
};

TEST_F(MeshFixture, CoordinateHelpers)
{
    build(4, 4);
    EXPECT_EQ(mesh->numNodes(), 16u);
    EXPECT_EQ(mesh->xOf(5), 1u);
    EXPECT_EQ(mesh->yOf(5), 1u);
    EXPECT_EQ(mesh->nodeAt(3, 2), 11u);
    EXPECT_EQ(mesh->hopDistance(0, 15), 6u);
    EXPECT_EQ(mesh->hopDistance(5, 5), 0u);
}

TEST_F(MeshFixture, DeliversAcrossTheMesh)
{
    build(4, 4);
    mesh->router(0).inject(makePkt(0, 15, 1));
    eq.run();
    ASSERT_EQ(sinks[15].got.size(), 1u);
    EXPECT_TRUE(sinks[15].got[0].crcOk());
    EXPECT_EQ(sinks[15].got[0].srcNode, 0u);
    for (NodeId n = 0; n < 15; ++n)
        EXPECT_TRUE(sinks[n].got.empty());
}

TEST_F(MeshFixture, SelfDeliveryWorks)
{
    build(2, 2);
    mesh->router(3).inject(makePkt(3, 3, 1));
    eq.run();
    ASSERT_EQ(sinks[3].got.size(), 1u);
}

TEST_F(MeshFixture, LatencyGrowsWithHops)
{
    build(4, 1);
    mesh->router(0).inject(makePkt(0, 1, 1));
    eq.run();
    Tick one_hop = sinks[1].when[0];

    mesh->router(0).inject(makePkt(0, 3, 2));
    Tick start = eq.curTick();
    eq.run();
    Tick three_hops = sinks[3].when[0] - start;

    EXPECT_GT(three_hops, one_hop);
    // Cut-through: each extra hop adds ~(routing + link latency), not
    // a full serialization.
    Tick per_hop = Router::routingLatency + Router::linkLatency;
    EXPECT_NEAR(static_cast<double>(three_hops - one_hop),
                static_cast<double>(2 * per_hop),
                static_cast<double>(per_hop));
}

TEST_F(MeshFixture, InOrderPerSourceDestinationPair)
{
    build(4, 4);
    // Stream packets 0..49 from node 0 to node 10, injecting as
    // credit allows.
    std::uint64_t next = 0;
    EventFunctionWrapper injector(
        [&] {
            while (next < 50 && mesh->router(0).injectReady())
                mesh->router(0).inject(makePkt(0, 10, next++));
            if (next < 50)
                eq.schedule(&injector, eq.curTick() + ONE_US);
        },
        "injector");
    eq.schedule(&injector, 0);
    eq.run();

    ASSERT_EQ(sinks[10].got.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(sinks[10].got[i].seq, i);
}

TEST_F(MeshFixture, BackpressureHoldsPacketsWhenSinkBusy)
{
    build(2, 1);
    sinks[1].ready = false;
    mesh->router(0).inject(makePkt(0, 1, 1));
    eq.run();
    EXPECT_TRUE(sinks[1].got.empty());

    // Un-stall the sink; the router retries on the kick.
    sinks[1].ready = true;
    mesh->router(1).sinkReadyAgain();
    eq.run();
    ASSERT_EQ(sinks[1].got.size(), 1u);
}

TEST_F(MeshFixture, BackpressurePropagatesToInjector)
{
    build(3, 1);
    sinks[2].ready = false;
    // Fill the path: eventually node 0's router refuses injection.
    int injected = 0;
    for (int i = 0; i < 64; ++i) {
        if (!mesh->router(0).injectReady())
            break;
        mesh->router(0).inject(makePkt(0, 2, i));
        ++injected;
        eq.run();
    }
    EXPECT_LT(injected, 64);
    EXPECT_FALSE(mesh->router(0).injectReady());
    EXPECT_TRUE(sinks[2].got.empty());

    // Release: everything drains, in order.
    sinks[2].ready = true;
    mesh->router(2).sinkReadyAgain();
    eq.run();
    EXPECT_EQ(sinks[2].got.size(), static_cast<std::size_t>(injected));
    for (int i = 0; i < injected; ++i)
        EXPECT_EQ(sinks[2].got[i].seq, static_cast<std::uint64_t>(i));
}

TEST_F(MeshFixture, RandomTrafficAllDeliveredNoDeadlock)
{
    build(4, 4);
    Rng rng(1234);
    constexpr int kPackets = 400;
    std::map<std::pair<NodeId, NodeId>, std::uint64_t> sent_per_pair;

    struct Source
    {
        std::vector<NetPacket> backlog;
    };
    std::vector<Source> sources(16);
    for (int i = 0; i < kPackets; ++i) {
        NodeId src = static_cast<NodeId>(rng.below(16));
        NodeId dst = static_cast<NodeId>(rng.below(16));
        auto &n = sent_per_pair[{src, dst}];
        NetPacket pkt = makePkt(src, dst, n++,
                                8 + rng.below(64) * 4);
        pkt.srcNode = src;
        sources[src].backlog.push_back(std::move(pkt));
    }

    EventFunctionWrapper pump(
        [&] {
            bool more = false;
            for (NodeId n = 0; n < 16; ++n) {
                auto &b = sources[n].backlog;
                while (!b.empty() && mesh->router(n).injectReady()) {
                    NetPacket pkt = std::move(b.front());
                    b.erase(b.begin());
                    pkt.injectedAt = eq.curTick();
                    mesh->router(n).inject(std::move(pkt));
                }
                more = more || !b.empty();
            }
            if (more)
                eq.schedule(&pump, eq.curTick() + ONE_US);
        },
        "pump");
    eq.schedule(&pump, 0);
    eq.run(50'000'000);

    // Everything delivered, uncorrupted, in per-pair order.
    std::size_t total = 0;
    std::map<std::pair<NodeId, NodeId>, std::uint64_t> seen;
    for (NodeId n = 0; n < 16; ++n) {
        total += sinks[n].got.size();
        for (const NetPacket &pkt : sinks[n].got) {
            EXPECT_TRUE(pkt.crcOk());
            EXPECT_EQ(pkt.dstNode, n);
            auto key = std::make_pair(pkt.srcNode, n);
            EXPECT_EQ(pkt.seq, seen[key]++) << "out of order "
                << pkt.srcNode << "->" << n;
        }
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kPackets));

    // With every link up, routing is pure dimension order: no router
    // ever detours.
    stats::Snapshot snap;
    for (NodeId n = 0; n < 16; ++n)
        mesh->router(n).statGroup().snapshotInto(snap);
    EXPECT_EQ(snap.sum("mesh.router*.misroutes"), 0u);
}

TEST_F(MeshFixture, BlockedUpstreamWokenOncePerReleasedCredit)
{
    // One buffer slot per port: packet A fills router 1's WEST input
    // while its sink is busy, so router 0 blocks forwarding B.
    params.inputBufferPackets = 1;
    build(2, 1);
    Router &r0 = mesh->router(0);
    Router &r1 = mesh->router(1);
    auto r0_blocked = [&] {
        stats::Snapshot snap;
        r0.statGroup().snapshotInto(snap);
        return snap.sum("mesh.router0.blockedOnCredit");
    };
    sinks[1].ready = false;

    r0.inject(makePkt(0, 1, 0));
    eq.run();
    r0.inject(makePkt(0, 1, 1));
    eq.run();
    EXPECT_EQ(r0_blocked(), 1u);
    EXPECT_TRUE(r1.upstreamBlocked(Router::WEST));

    // Re-polling while parked (any kick of router 0's advance loop)
    // blocks again but keeps the single flag; nothing wakes router 0
    // until a credit is released.
    r0.sinkReadyAgain();
    eq.run();
    EXPECT_EQ(r0_blocked(), 2u);
    EXPECT_TRUE(r1.upstreamBlocked(Router::WEST));
    EXPECT_TRUE(sinks[1].got.empty());

    // Ejecting A releases the credit: router 0 forwards B in that very
    // tick without blocking again, and B's own release finds no one
    // parked.
    sinks[1].ready = true;
    r1.sinkReadyAgain();
    eq.run();
    ASSERT_EQ(sinks[1].got.size(), 2u);
    EXPECT_EQ(sinks[1].got[0].seq, 0u);
    EXPECT_EQ(sinks[1].got[1].seq, 1u);
    EXPECT_EQ(r0_blocked(), 2u);
    EXPECT_FALSE(r1.upstreamBlocked(Router::WEST));
    Tick ser = r1.serializationTime(sinks[1].got[1]);
    EXPECT_EQ(sinks[1].when[1] - sinks[1].when[0],
              Router::linkLatency + Router::routingLatency + ser);
}

} // namespace
} // namespace shrimp
