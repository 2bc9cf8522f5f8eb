/**
 * @file
 * Unit tests for the mesh backplane: dimension-order routing,
 * latency structure, in-order delivery, credit backpressure,
 * deadlock-free operation under load, the routing function on its
 * own, a link cut at the wire, and a same-tick race on one credit.
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

/**
 * A same-tick race on one credit. Router 1 forwards A east out of its
 * one-slot WEST input at tick 0, and A's tail frees that slot at tick
 * `freed`; at that very tick router 0 tries to forward B into it. The
 * test plays the upstream of both WEST ports (router 0's is unwired),
 * so it decides when router 0's advance takes its place in the queue:
 * before router 1 reserves the release, or after. Returns router 0's
 * blockedOnCredit.
 */
struct CreditRaceFixture : MeshFixture
{
    std::uint64_t
    race(bool advance_first)
    {
        params.inputBufferPackets = 1;
        build(3, 1);
        Router &r0 = mesh->router(0);
        Router &r1 = mesh->router(1);

        NetPacket a = makePkt(0, 2, 0);
        Tick freed = r1.serializationTime(a);
        r1.reserveCredit(Router::WEST);
        r1.headerArrive(Router::WEST, std::move(a), 0);
        if (!advance_first)
            eq.runUntil(0);     // router 1 forwards A: release reserved
        NetPacket b = makePkt(0, 1, 1);
        Tick b_ser = r1.serializationTime(b);
        r0.reserveCredit(Router::WEST);
        r0.headerArrive(Router::WEST, std::move(b), freed);
        eq.run();

        EXPECT_EQ(sinks[2].got.size(), 1u);
        EXPECT_FALSE(r1.upstreamBlocked(Router::WEST));
        // Either way router 0 forwards B at tick `freed`.
        EXPECT_EQ(sinks[1].when, (std::vector<Tick>{
                                     freed + Router::linkLatency +
                                     Router::routingLatency + b_ser}));
        stats::Snapshot snap;
        r0.statGroup().snapshotInto(snap);
        return snap.at("mesh.router0.blockedOnCredit");
    }
};

TEST_F(CreditRaceFixture, AdvanceQueuedBeforeTheReleaseBlocksOnce)
{
    // Router 0's advance runs first and finds no credit; it parks,
    // and the release wakes it at its own position, in the same tick.
    EXPECT_EQ(race(true), 1u);
}

TEST_F(CreditRaceFixture, AdvanceQueuedAfterTheReleaseForwardsAtOnce)
{
    EXPECT_EQ(race(false), 0u);
}

TEST_F(MeshFixture, CutLinkDropsOneWayThenRoutesAroundUntilForcedUp)
{
    build(2, 2);
    Router &r0 = mesh->router(0);
    auto r0Stat = [&r0](const char *name) {
        stats::Snapshot snap;
        r0.statGroup().snapshotInto(snap);
        return snap.at(std::string("mesh.router0.") + name);
    };

    // A fresh cut kills only router 0's EAST wire: its transmission
    // is lost, while node 1 still reaches node 0 across the reverse
    // direction of the same link.
    r0.forceLinkDown(Router::EAST);
    r0.inject(makePkt(0, 1, 1));
    mesh->router(1).inject(makePkt(1, 0, 2));
    eq.run();
    EXPECT_EQ(r0Stat("linkDownDrops"), 1u);
    EXPECT_TRUE(sinks[1].got.empty());
    ASSERT_EQ(sinks[0].got.size(), 1u);
    EXPECT_EQ(sinks[0].got[0].seq, 2u);

    // Once the cut is older than routeAroundAfter, traffic detours
    // south around it instead of dying on the wire.
    eq.runUntil(eq.curTick() + Router::routeAroundAfter);
    r0.inject(makePkt(0, 1, 3));
    eq.run();
    ASSERT_EQ(sinks[1].got.size(), 1u);
    EXPECT_EQ(sinks[1].got[0].seq, 3u);
    EXPECT_EQ(sinks[1].got[0].misroutes, 1u);
    EXPECT_EQ(r0Stat("misroutes"), 1u);
    EXPECT_EQ(r0Stat("linkDownDrops"), 1u);

    // Restoring the wire restores the direct route.
    r0.forceLinkUp(Router::EAST);
    r0.inject(makePkt(0, 1, 4));
    eq.run();
    ASSERT_EQ(sinks[1].got.size(), 2u);
    EXPECT_EQ(sinks[1].got[1].seq, 4u);
    EXPECT_EQ(sinks[1].got[1].misroutes, 0u);
    EXPECT_EQ(r0Stat("misroutes"), 1u);
    EXPECT_EQ(r0Stat("linkDownDrops"), 1u);
}

/** Ports with a neighbour at (@p x, @p y) of a @p w x @p h mesh. */
unsigned
presentIn(unsigned w, unsigned h, unsigned x, unsigned y)
{
    unsigned m = 0;
    if (x + 1 < w)
        m |= Router::portBit(Router::EAST);
    if (x > 0)
        m |= Router::portBit(Router::WEST);
    if (y + 1 < h)
        m |= Router::portBit(Router::SOUTH);
    if (y > 0)
        m |= Router::portBit(Router::NORTH);
    return m;
}

NetPacket
routeState(unsigned dst_x, unsigned dst_y, bool y_first = false,
           unsigned misroutes = 0)
{
    NetPacket pkt;
    pkt.dstX = static_cast<std::uint16_t>(dst_x);
    pkt.dstY = static_cast<std::uint16_t>(dst_y);
    pkt.yFirst = y_first;
    pkt.misroutes = static_cast<std::uint8_t>(misroutes);
    return pkt;
}

TEST(RouteFunction, AllLinksUsableIsDimensionOrderEverywhere)
{
    // Walk every (source, destination) pair of a 4x4 hop by hop: each
    // hop corrects X before Y, none detours, and the walk ends at the
    // destination after exactly the Manhattan distance. A yFirst
    // packet corrects Y first instead.
    constexpr unsigned w = 4, h = 4;
    for (unsigned src = 0; src < w * h; ++src) {
        for (unsigned dst = 0; dst < w * h; ++dst) {
            const unsigned sx = src % w, sy = src / w;
            const unsigned dx = dst % w, dy = dst / w;
            unsigned x = sx, y = sy;
            unsigned hops = 0;
            for (;;) {
                unsigned present = presentIn(w, h, x, y);
                Router::RouteDecision rd = routingFunction(
                    x, y, present, present, routeState(dx, dy));
                EXPECT_FALSE(rd.detour);
                if (rd.out == Router::LOCAL)
                    break;
                Router::Port want = dx > x   ? Router::EAST
                                    : dx < x ? Router::WEST
                                    : dy > y ? Router::SOUTH
                                             : Router::NORTH;
                ASSERT_EQ(rd.out, want)
                    << "at (" << x << "," << y << ") toward " << dst;
                x += rd.out == Router::EAST ? 1 : 0;
                x -= rd.out == Router::WEST ? 1 : 0;
                y += rd.out == Router::SOUTH ? 1 : 0;
                y -= rd.out == Router::NORTH ? 1 : 0;
                ++hops;
            }
            EXPECT_EQ(x, dx);
            EXPECT_EQ(y, dy);
            EXPECT_EQ(hops, (dx > sx ? dx - sx : sx - dx) +
                                (dy > sy ? dy - sy : sy - dy));

            unsigned present = presentIn(w, h, sx, sy);
            Router::RouteDecision yf = routingFunction(
                sx, sy, present, present, routeState(dx, dy, true));
            EXPECT_FALSE(yf.detour);
            EXPECT_EQ(yf.out, dy > sy   ? Router::SOUTH
                              : dy < sy ? Router::NORTH
                              : dx > sx ? Router::EAST
                              : dx < sx ? Router::WEST
                                        : Router::LOCAL);
        }
    }
}

TEST(RouteFunction, DeadXLinkDetoursTowardDestinationRow)
{
    const unsigned all = presentIn(4, 4, 1, 1);
    const unsigned no_east = all & ~Router::portBit(Router::EAST);

    // (1,1) toward (3,3): X is preferred; with EAST dead the packet
    // steps south toward row 3 and clears yFirst to retry X there.
    Router::RouteDecision rd =
        routingFunction(1, 1, all, no_east, routeState(3, 3));
    EXPECT_EQ(rd.out, Router::SOUTH);
    EXPECT_TRUE(rd.detour);
    EXPECT_FALSE(rd.yFirstAfter);

    // Toward (3,0) the destination row lies north.
    rd = routingFunction(1, 1, all, no_east, routeState(3, 0));
    EXPECT_EQ(rd.out, Router::NORTH);
    EXPECT_FALSE(rd.yFirstAfter);

    // Already in the destination row: south when there is a south
    // neighbour, north on the bottom edge.
    rd = routingFunction(1, 1, all, no_east, routeState(3, 1));
    EXPECT_EQ(rd.out, Router::SOUTH);
    const unsigned bottom = presentIn(4, 4, 1, 3);
    rd = routingFunction(1, 3, bottom,
                         bottom & ~Router::portBit(Router::EAST),
                         routeState(3, 3));
    EXPECT_EQ(rd.out, Router::NORTH);
    EXPECT_TRUE(rd.detour);

    // The opposite perpendicular port is the fallback.
    rd = routingFunction(1, 1, all,
                         no_east & ~Router::portBit(Router::SOUTH),
                         routeState(3, 3));
    EXPECT_EQ(rd.out, Router::NORTH);
    EXPECT_TRUE(rd.detour);
    EXPECT_FALSE(rd.yFirstAfter);
}

TEST(RouteFunction, DeadYLinkDetoursWithYFirstSet)
{
    const unsigned all = presentIn(4, 4, 1, 1);
    const unsigned no_south = all & ~Router::portBit(Router::SOUTH);

    // (1,1) toward (1,3): with SOUTH dead the packet steps east (its
    // column is the destination's, and there is an east neighbour)
    // and sets yFirst to finish Y from the new column.
    Router::RouteDecision rd =
        routingFunction(1, 1, all, no_south, routeState(1, 3));
    EXPECT_EQ(rd.out, Router::EAST);
    EXPECT_TRUE(rd.detour);
    EXPECT_TRUE(rd.yFirstAfter);

    // A yFirst packet toward (0,3) prefers SOUTH too; its detour heads
    // west toward the destination's column, and east is the fallback.
    rd = routingFunction(1, 1, all, no_south, routeState(0, 3, true));
    EXPECT_EQ(rd.out, Router::WEST);
    EXPECT_TRUE(rd.yFirstAfter);
    rd = routingFunction(1, 1, all,
                         no_south & ~Router::portBit(Router::WEST),
                         routeState(0, 3, true));
    EXPECT_EQ(rd.out, Router::EAST);
    EXPECT_TRUE(rd.detour);
    EXPECT_TRUE(rd.yFirstAfter);
}

TEST(RouteFunction, SpentBudgetOrNoCandidateHasNoRoute)
{
    const unsigned all = presentIn(4, 4, 1, 1);
    const unsigned no_east = all & ~Router::portBit(Router::EAST);

    // A spent budget forbids a detour, but not the preferred port.
    Router::RouteDecision rd = routingFunction(
        1, 1, all, no_east, routeState(3, 3, false, Router::misrouteBudget));
    EXPECT_EQ(rd.out, Router::NUM_PORTS);
    EXPECT_FALSE(rd.detour);
    rd = routingFunction(1, 1, all, all,
                         routeState(3, 3, false, Router::misrouteBudget));
    EXPECT_EQ(rd.out, Router::EAST);

    // Both perpendicular ports dead, or absent on a line.
    rd = routingFunction(1, 1, all, Router::portBit(Router::WEST),
                         routeState(3, 3));
    EXPECT_EQ(rd.out, Router::NUM_PORTS);
    const unsigned line = presentIn(4, 1, 1, 0);
    rd = routingFunction(1, 0, line,
                         line & ~Router::portBit(Router::EAST),
                         routeState(3, 0));
    EXPECT_EQ(rd.out, Router::NUM_PORTS);
}

} // namespace
} // namespace shrimp
