/**
 * @file
 * Liveness detection and node-failure recovery: heartbeat-driven
 * crash detection, mapping teardown toward a dead peer (without
 * collateral damage to live traffic), deliberate-DMA abort, and full
 * restart + remap recovery.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "nic/deliberate_dma.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

SystemConfig
healthyConfig(unsigned width = 3, unsigned height = 1)
{
    SystemConfig cfg;
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    cfg.ni.reliability.enabled = true;
    cfg.health.enabled = true;
    cfg.health.heartbeatPeriod = 50 * ONE_US;
    cfg.health.suspectTimeout = 200 * ONE_US;
    cfg.health.deadTimeout = 600 * ONE_US;
    return cfg;
}

TEST(Health, RequiresNiReliability)
{
    // Peer death fails the reliable channel and epoch changes restart
    // its streams, so health without the reliability layer is refused
    // at build time, naming the field to set.
    SystemConfig cfg = healthyConfig();
    cfg.ni.reliability.enabled = false;
    try {
        ShrimpSystem sys(cfg);
        ADD_FAILURE() << "built a system with health on, reliability off";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("ni.reliability.enabled"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Health, SteadyStateAllAlive)
{
    ShrimpSystem sys(healthyConfig());
    sys.runFor(5 * ONE_MS);
    stats::Snapshot snap = sys.snapshot();
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        HealthMonitor *h = sys.kernel(id).health();
        ASSERT_NE(h, nullptr);
        std::string health = "node" + std::to_string(id) + ".kernel.health.";
        EXPECT_GT(snap.at(health + "heartbeatsSent"), 0u);
        EXPECT_GT(snap.at(health + "heartbeatsReceived"), 0u);
        EXPECT_EQ(snap.at(health + "peersDeclaredDead"), 0u);
        for (NodeId peer = 0; peer < sys.numNodes(); ++peer) {
            if (peer != id) {
                EXPECT_EQ(h->peerState(peer), PeerHealth::ALIVE);
            }
        }
    }
}

TEST(Health, CrashDetectedWithinDeadTimeout)
{
    SystemConfig cfg = healthyConfig();
    ShrimpSystem sys(cfg);
    sys.runFor(ONE_MS);     // settle into steady heartbeating

    sys.crashNode(1);
    EXPECT_TRUE(sys.nodeCrashed(1));

    // Detection must land within the dead timeout plus two heartbeat
    // evaluation periods of slack.
    sys.runFor(cfg.health.deadTimeout + 2 * cfg.health.heartbeatPeriod);
    stats::Snapshot snap = sys.snapshot();
    for (NodeId id : {NodeId{0}, NodeId{2}}) {
        HealthMonitor *h = sys.kernel(id).health();
        EXPECT_EQ(h->peerState(1), PeerHealth::DEAD)
            << "node " << id << " missed the crash";
        EXPECT_GE(snap.at("node" + std::to_string(id) +
                          ".kernel.health.peersDeclaredDead"),
                  1u);
        EXPECT_TRUE(sys.kernel(id).peerFailed(1));
    }
    // The victim's own detector is paused, not reporting nonsense.
    EXPECT_FALSE(sys.kernel(1).health()->running());
}

TEST(Health, DeadPeerErrorsMappingsWithoutStallingOthers)
{
    ShrimpSystem sys(healthyConfig());

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Process *c = sys.kernel(2).createProcess("c");
    Addr srcToB = a->allocate(1), srcToC = a->allocate(1);
    Addr dstB = b->allocate(1), dstC = c->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, srcToB, 1, sys.kernel(1), *b,
                                      dstB, UpdateMode::AUTO_SINGLE),
              err::OK);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, srcToC, 1, sys.kernel(2), *c,
                                      dstC, UpdateMode::AUTO_SINGLE),
              err::OK);
    sys.runFor(ONE_MS);

    sys.crashNode(1);
    sys.runFor(2 * ONE_MS);
    ASSERT_TRUE(sys.kernel(0).peerFailed(1));

    // The mapping toward the dead peer reports statusMapError on its
    // command page...
    auto &ni = sys.node(0).ni;
    Translation tb = a->space().translate(srcToB, false);
    ASSERT_TRUE(tb.ok());
    EXPECT_EQ(ni.busRead(ni.cmdAddrFor(tb.paddr), 8),
              ShrimpNi::statusMapError);

    // ...while traffic to the live peer flows undisturbed.
    Translation tc = a->space().translate(srcToC, false);
    ASSERT_TRUE(tc.ok());
    std::uint32_t value = 0xA11CE;
    sys.node(0).bus.postWrite(tc.paddr, &value, 4, BusMaster::CPU,
                              sys.curTick());
    sys.runFor(ONE_MS);
    EXPECT_EQ(ni.busRead(ni.cmdAddrFor(tc.paddr), 8), 0u);
    Translation td = c->space().translate(dstC, false);
    ASSERT_TRUE(td.ok());
    EXPECT_EQ(sys.node(2).mem.readInt(td.paddr, 4), 0xA11CEu);

    // New maps toward the dead peer are refused up front.
    Addr more = a->allocate(1);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, more, 1, sys.kernel(1), *b,
                                      dstB, UpdateMode::AUTO_SINGLE),
              err::HOSTDOWN);
}

TEST(Health, DeliberateDmaAbortsOnPeerDeath)
{
    SystemConfig cfg = healthyConfig(2, 1);
    // Make the retransmit layer give up quickly so the in-flight DMA
    // hits the dead peer's teardown path, not a 5 ms retry tail.
    cfg.ni.reliability.rtoBase = 20 * ONE_US;
    cfg.ni.reliability.rtoMax = 100 * ONE_US;
    cfg.ni.reliability.maxRetries = 3;
    // A tiny window and outgoing FIFO wedge the engine mid-transfer
    // once the receiver stops acking, so death finds it still busy.
    cfg.ni.reliability.windowPackets = 4;
    cfg.ni.outFifo = PacketFifo::Params{2048, 1536, 512};
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1), dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::DELIBERATE),
              err::OK);
    sys.runFor(ONE_MS);

    Translation t = a->space().translate(src, true);
    ASSERT_TRUE(t.ok());
    for (unsigned i = 0; i < 64; ++i)
        sys.node(0).mem.writeInt(t.paddr + 4 * i, 0x5EED + i, 4);

    // Start a whole-page deliberate transfer, then kill the receiver
    // while the engine is still pushing chunks.
    auto &ni = sys.node(0).ni;
    std::uint32_t nwords = PAGE_SIZE / 4;
    sys.node(0).bus.postWrite(ni.cmdAddrFor(t.paddr), &nwords, 4,
                              BusMaster::CPU, sys.curTick());
    sys.runFor(2 * ONE_US);
    sys.crashNode(1);
    sys.runFor(5 * ONE_MS);

    ASSERT_TRUE(sys.kernel(0).peerFailed(1));
    std::uint64_t status = ni.busRead(ni.cmdAddrFor(t.paddr), 8);
    EXPECT_TRUE(status == dma_status::ABORTED ||
                status == ShrimpNi::statusMapError)
        << "status " << status;
    EXPECT_GE(sys.snapshot().at("node0.ni.dma.aborts"), 1u);
    // The engine is free again for future transfers.
    EXPECT_FALSE(sys.node(0).ni.dma().busy());
}

TEST(Health, StaleSenderStampRejectedAndCounted)
{
    // checkStamp's STALE_SENDER verdict: once a peer's newer life is
    // known, a message stamped from its older life is refused and
    // counted, and the known incarnation does not roll back.
    ShrimpSystem sys(healthyConfig());
    sys.runFor(ONE_MS);
    HealthMonitor &h0 = *sys.kernel(0).health();
    HealthMonitor &h1 = *sys.kernel(1).health();
    const std::uint64_t first_life = h1.stampFor(0);

    h1.bumpIncarnation("test");
    sys.runFor(ONE_MS);
    ASSERT_EQ(h0.peerIncarnation(1), 2u);
    auto rejects = [&] {
        return sys.snapshot().sum("node0.kernel.health.staleEpochRejects");
    };
    const std::uint64_t before = rejects();

    EXPECT_FALSE(h0.admitStamp(1, first_life));
    EXPECT_EQ(rejects(), before + 1);
    EXPECT_EQ(h0.peerIncarnation(1), 2u);
    EXPECT_TRUE(h0.admitStamp(1, h1.stampFor(0)));
    EXPECT_EQ(rejects(), before + 1);
}

TEST(Health, CrashParksRunningProcessAndRestartResumesIt)
{
    // Kernel::crash with a process on the CPU parks it READY; memory
    // survives the crash, so after restart it resumes from the same
    // PC and its store loop finishes with every word in place.
    constexpr int kWords = 1024;
    ShrimpSystem sys(healthyConfig());
    Process *p = sys.kernel(1).createProcess("p");
    Addr buf = p->allocate(1);
    Program prog("p");
    prog.movi(R1, buf);
    prog.movi(R2, 0x1000);
    prog.movi(R3, 0x1000 + kWords);
    prog.label("loop");
    prog.st(R1, 0, R2, 4);
    prog.addi(R1, 4);
    prog.addi(R2, 1);
    prog.cmp(R2, R3);
    prog.jl("loop");
    prog.halt();
    test::loadProgram(sys.kernel(1), *p, std::move(prog));
    sys.startAll();

    auto words_done = [&] {
        int n = 0;
        while (n < kWords &&
               test::peek32(sys, 1, *p, buf + 4 * n) ==
                   static_cast<std::uint32_t>(0x1000 + n)) {
            ++n;
        }
        return n;
    };
    while (words_done() == 0)
        sys.runFor(ONE_US);
    ASSERT_EQ(p->state, ProcState::RUNNING);

    sys.crashNode(1);
    EXPECT_EQ(p->state, ProcState::READY);
    const int at_crash = words_done();
    ASSERT_LT(at_crash, kWords);
    sys.runFor(ONE_MS);
    EXPECT_EQ(words_done(), at_crash) << "a crashed CPU kept storing";

    sys.restartNode(1);
    ASSERT_TRUE(sys.runUntilAllExited());
    EXPECT_EQ(p->state, ProcState::EXITED);
    EXPECT_EQ(words_done(), kWords);
}

TEST(Health, RestartAndRemapRestoresDelivery)
{
    SystemConfig cfg = healthyConfig();
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1), dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    sys.runFor(ONE_MS);

    sys.crashNode(1);
    sys.runFor(2 * ONE_MS);
    ASSERT_TRUE(sys.kernel(0).peerFailed(1));

    sys.restartNode(1);
    // Recovery needs the restarted node's next heartbeat to land.
    sys.runFor(2 * ONE_MS);
    EXPECT_FALSE(sys.kernel(0).peerFailed(1));
    EXPECT_EQ(sys.kernel(0).health()->peerState(1), PeerHealth::ALIVE);
    EXPECT_GE(sys.snapshot().at("node0.kernel.health.peersRecovered"), 1u);

    // The old mapping was torn down; an explicit remap brings the
    // pair back end to end.
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    sys.runFor(ONE_MS);

    Translation t = a->space().translate(src, true);
    ASSERT_TRUE(t.ok());
    std::uint32_t value = 0xBEA7;
    sys.node(0).bus.postWrite(t.paddr, &value, 4, BusMaster::CPU,
                              sys.curTick());
    sys.runFor(ONE_MS);
    Translation td = b->space().translate(dst, false);
    ASSERT_TRUE(td.ok());
    EXPECT_EQ(sys.node(1).mem.readInt(td.paddr, 4), 0xBEA7u);
}

} // namespace
} // namespace shrimp
