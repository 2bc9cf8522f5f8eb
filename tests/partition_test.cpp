/**
 * @file
 * Partition tolerance (DESIGN.md section 14): quorum-gated death on
 * the minority side, epoch-bumped reintegration after a heal, the
 * stale-writeback fence with exactly-once re-homing, owner restart
 * racing the recall RTO, and route-around budget exhaustion across a
 * full cut-set.
 */

#include <gtest/gtest.h>

#include "net/router.hh"
#include "os/dsm.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

SystemConfig
partitionConfig(unsigned width, unsigned height, bool dsm)
{
    SystemConfig cfg;
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    cfg.ni.reliability.enabled = true;
    cfg.health.enabled = true;
    cfg.health.heartbeatPeriod = 50 * ONE_US;
    cfg.health.suspectTimeout = 200 * ONE_US;
    cfg.health.deadTimeout = 600 * ONE_US;
    if (dsm) {
        cfg.dsm.enabled = true;
        cfg.dsm.numPages = 4;
    }
    return cfg;
}

std::uint64_t
totalStaleEpochRejects(const ShrimpSystem &sys)
{
    return sys.snapshot().sum("node*.kernel.health.staleEpochRejects");
}

TEST(Partition, MinorityStallsWithoutQuorum)
{
    ShrimpSystem sys(partitionConfig(2, 2, false));
    sys.runFor(ONE_MS);

    // Strand node 3 alone: 1 of 4 can never reach a strict majority.
    ASSERT_GT(sys.partition({3}, {0, 1, 2}), 0u);
    EXPECT_TRUE(sys.partitioned());
    sys.runFor(2 * ONE_MS);

    // The majority side has quorum and declares the minority DEAD.
    for (NodeId id : {NodeId{0}, NodeId{1}, NodeId{2}}) {
        EXPECT_EQ(sys.kernel(id).health()->peerState(3),
                  PeerHealth::DEAD)
            << "majority node " << id;
    }
    // The minority must NOT declare the majority dead: its suspects
    // stall at SUSPECT for lack of a quorum.
    HealthMonitor *h3 = sys.kernel(3).health();
    EXPECT_FALSE(h3->quorumReachable());
    stats::Snapshot snap = sys.snapshot();
    EXPECT_GE(snap.at("node3.kernel.health.partitionsDeclared"), 1u);
    EXPECT_EQ(snap.at("node3.kernel.health.peersDeclaredDead"), 0u);
    for (NodeId peer : {NodeId{0}, NodeId{1}, NodeId{2}})
        EXPECT_EQ(h3->peerState(peer), PeerHealth::SUSPECT);
}

TEST(Partition, HealReintegratesAndBumpsEpochs)
{
    ShrimpSystem sys(partitionConfig(2, 2, false));
    sys.runFor(ONE_MS);
    sys.partition({3}, {0, 1, 2});
    sys.runFor(2 * ONE_MS);
    ASSERT_EQ(sys.kernel(0).health()->peerState(3), PeerHealth::DEAD);

    sys.heal();
    EXPECT_FALSE(sys.partitioned());
    sys.runFor(3 * ONE_MS);

    // Everyone sees everyone ALIVE again...
    for (NodeId a = 0; a < sys.numNodes(); ++a) {
        for (NodeId b = 0; b < sys.numNodes(); ++b) {
            if (a != b) {
                EXPECT_EQ(sys.kernel(a).health()->peerState(b),
                          PeerHealth::ALIVE)
                    << a << " -> " << b;
            }
        }
    }
    // ...and reintegration went through new lives on both sides: the
    // majority bumped when the minority spoke again, the minority
    // bumped when its quorum stall cleared, and the bump exchange
    // fenced at least one straggler machine-wide.
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        EXPECT_GT(sys.kernel(id).health()->selfIncarnation(), 1u)
            << "node " << id << " never started a new life";
    }
    EXPECT_GT(totalStaleEpochRejects(sys), 0u);
}

TEST(Partition, StaleWritebackFencedAndRehomedOnce)
{
    // 3x1 row: home 0, requester 1, owner 2. Cutting only node 2's
    // outbound direction makes the failure asymmetric -- the recall
    // still reaches the owner, but its writeback dies on the wire.
    SystemConfig cfg = partitionConfig(3, 1, true);
    // The stranded owner must keep retrying its writeback across the
    // whole outage instead of failing its channels.
    cfg.ni.reliability.maxRetries = 60;
    ShrimpSystem sys(cfg);

    std::uint32_t page = 0;
    while (sys.kernel(0).dsm()->homeNode(page) != 0)
        ++page;

    bool owned = false;
    sys.kernel(2).dsm()->acquire(page, true, [&owned](std::uint64_t st) {
        owned = st == err::OK;
    });
    sys.runFor(ONE_MS);
    ASSERT_TRUE(owned);
    ASSERT_EQ(sys.kernel(0).dsm()->ownerOf(page), 2u);

    Router::Port out = sys.backplane().portToward(2, 1);
    sys.backplane().router(2).forceLinkDown(out);

    // The requester's write-acquire recalls the page from the owner;
    // the owner's WB can only die outbound. Once heartbeat silence
    // declares the owner DEAD, the home fails the acquire fast rather
    // than forking a second writable copy (split-brain refusal).
    std::uint64_t acquireStatus = err::OK;
    bool acquireDone = false;
    sys.kernel(1).dsm()->acquire(
        page, true, [&](std::uint64_t st) {
            acquireDone = true;
            acquireStatus = st;
        });
    sys.runFor(2 * ONE_MS);
    EXPECT_EQ(sys.kernel(0).health()->peerState(2), PeerHealth::DEAD);
    EXPECT_TRUE(acquireDone);
    EXPECT_EQ(acquireStatus, err::HOSTDOWN);
    EXPECT_TRUE(sys.kernel(0).dsm()->errored(page));
    // The owner's side of the cut is asymmetric: it still hears the
    // majority's heartbeats and keeps believing they are alive.
    EXPECT_EQ(sys.snapshot().at("node2.kernel.health.peersDeclaredDead"),
              0u);

    // Restore the direction before the owner's retry budget dies. The
    // majority has moved on: the recovery bumps incarnations, so the
    // home fences the owner's old-view heartbeats, and the page
    // re-homes exactly once. The stale writeback never reaches the
    // home's writeback fence: when the owner sees the home's new life
    // it resets what it bound to the old one, its reliable channel
    // toward the home and its DSM messages, and the writeback dies
    // with them. Dsm.WritebackFenceRejectsNonOwnerAndSupersededLife
    // drives that fence directly.
    sys.backplane().router(2).forceLinkUp(out);
    sys.runFor(3 * ONE_MS);

    EXPECT_EQ(sys.kernel(0).health()->peerState(2), PeerHealth::ALIVE);
    EXPECT_FALSE(sys.kernel(0).dsm()->errored(page));
    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("node0.kernel.dsm.dsmRehomes"), 1u);
    EXPECT_GT(sys.kernel(2).peerIncarnation(0), 1u);
    EXPECT_GT(snap.at("node0.kernel.health.staleEpochRejects"), 0u);

    // The page is usable again, and the stale grant never resurrects:
    // the requester takes clean exclusive ownership.
    bool reacquired = false;
    sys.kernel(1).dsm()->acquire(
        page, true, [&reacquired](std::uint64_t st) {
            reacquired = st == err::OK;
        });
    sys.runFor(2 * ONE_MS);
    EXPECT_TRUE(reacquired);
    EXPECT_EQ(sys.kernel(0).dsm()->ownerOf(page), 1u);
}

TEST(Partition, OwnerRestartBeforeRtoFencesStaleLife)
{
    // Crash the owner mid-recall and restart it BEFORE heartbeat
    // silence can declare it dead: nobody ever sees DEAD, yet the
    // restart bumps its incarnation, so the grant held by its previous
    // life is revoked through the epoch fence alone and the page
    // re-homes exactly once.
    ShrimpSystem sys(partitionConfig(3, 1, true));

    std::uint32_t page = 0;
    while (sys.kernel(0).dsm()->homeNode(page) != 0)
        ++page;

    bool owned = false;
    sys.kernel(2).dsm()->acquire(page, true, [&owned](std::uint64_t st) {
        owned = st == err::OK;
    });
    sys.runFor(ONE_MS);
    ASSERT_TRUE(owned);

    // Recall goes out toward the owner...
    bool acquireDone = false;
    std::uint64_t acquireStatus = err::OK;
    sys.kernel(1).dsm()->acquire(
        page, true, [&](std::uint64_t st) {
            acquireDone = true;
            acquireStatus = st;
        });
    sys.runFor(10 * ONE_US);
    // ...and the owner power-fails mid-recall, restarting within the
    // suspect timeout so silence proves nothing to anyone.
    sys.crashNode(2);
    sys.runFor(100 * ONE_US);
    sys.restartNode(2);
    sys.runFor(3 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("node0.kernel.health.peersDeclaredDead"), 0u);
    EXPECT_GT(sys.kernel(2).health()->selfIncarnation(), 1u);
    EXPECT_EQ(snap.at("node0.kernel.dsm.dsmRehomes"), 1u);
    EXPECT_FALSE(sys.kernel(0).dsm()->errored(page));

    // However the recall raced the crash, the machine converges: the
    // requester either already completed or a retry takes ownership.
    if (!acquireDone || acquireStatus != err::OK) {
        bool retried = false;
        sys.kernel(1).dsm()->acquire(
            page, true, [&retried](std::uint64_t st) {
                retried = st == err::OK;
            });
        sys.runFor(2 * ONE_MS);
        EXPECT_TRUE(retried);
    }
    EXPECT_EQ(sys.kernel(0).dsm()->ownerOf(page), 1u);
}

TEST(RouterPartition, FullCutSetExhaustsMisrouteBudgetIntoDrops)
{
    // A fault-tolerant mesh with a wall of advertised-dead links has
    // no path into the east column: every packet burns its misroute
    // budget wandering and must land in routeAroundDrops -- never a
    // silent re-queue that wedges the mesh.
    SystemConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 3;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(2).createProcess("b");
    Addr src = a->allocate(1), dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(2), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    sys.runFor(ONE_MS);

    ASSERT_GT(sys.partition({0, 1, 3, 4, 6, 7}, {2, 5, 8}), 0u);

    auto dropsNow = [&sys] {
        return sys.snapshot().sum("mesh.router*.routeAroundDrops");
    };
    const std::uint64_t before = dropsNow();

    Translation t = a->space().translate(src, false);
    ASSERT_TRUE(t.ok());
    const unsigned kPackets = 8;
    for (unsigned i = 0; i < kPackets; ++i) {
        std::uint32_t value = 0xD00D + i;
        sys.node(0).bus.postWrite(t.paddr + 4 * i, &value, 4,
                                  BusMaster::CPU, sys.curTick());
        sys.runFor(50 * ONE_US);
    }
    sys.runFor(2 * ONE_MS);

    // Exact landing: every packet sent surfaced as a route-around
    // drop, and nothing is parked in any router queue.
    EXPECT_EQ(dropsNow() - before, kPackets);
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        EXPECT_EQ(sys.backplane().router(id).queuedPackets(), 0u)
            << "router " << id << " still holds packets";
    }
    // Nothing leaked across the cut.
    Translation td = b->space().translate(dst, false);
    ASSERT_TRUE(td.ok());
    EXPECT_EQ(sys.node(2).mem.readInt(td.paddr, 4), 0u);
}

} // namespace
} // namespace shrimp
