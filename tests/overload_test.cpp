/**
 * @file
 * Overload-survival tests: the end-to-end congestion-control layer
 * (router/FIFO ECN marks echoed on ACKs into AIMD window cuts),
 * kernel admission control (fail-fast WOULDBLOCK instead of queueing
 * toward unhealthy or persistently-congested peers), graceful
 * send-path degradation when the outgoing FIFO overflows, and the
 * per-NI progress watchdog. The sender-side protocol mechanics (AIMD
 * arithmetic, pacer, jitter) are unit-tested in retransmit_test.cpp;
 * these tests drive whole systems.
 */

#include <gtest/gtest.h>

#include <string>

#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;

/** Schedule @p count host-driven 4-byte stores through @p sys's bus. */
void
scheduleStores(ShrimpSystem &sys, NodeId node, Addr paddr,
               unsigned count, Tick start, Tick spacing)
{
    EventQueue &eq = sys.eventQueue();
    for (unsigned i = 0; i < count; ++i) {
        eq.scheduleFn(
            [&sys, node, paddr, i]() {
                std::uint32_t value = 0xC0DE0000u + i;
                sys.node(node).bus.postWrite(paddr + 4 * i, &value, 4,
                                             BusMaster::CPU,
                                             sys.curTick());
            },
            start + Tick{i} * spacing, EventPriority::DEFAULT,
            "overload store");
    }
}

TEST(Overload, EcnMarksEchoedAndSenderWindowsShrink)
{
    // Three senders incast one receiver over a 1x4 line, so every
    // DATA packet funnels through one ejection port. Router queues
    // rise past the ECN threshold, marks are latched by the receiver
    // and echoed on ACKs, and the senders' AIMD windows must shrink
    // -- yet every word still arrives exactly once.
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 1;
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.congestion.enabled = true;
    cfg.router.ecnThresholdPackets = 2;
    ShrimpSystem sys(cfg);

    constexpr unsigned kStores = 64;
    Process *hot = sys.kernel(0).createProcess("hot");
    Addr dst_base = hot->allocate(3);
    for (NodeId s = 1; s <= 3; ++s) {
        Process *p = sys.kernel(s).createProcess("src");
        Addr src = p->allocate(1);
        ASSERT_EQ(sys.kernel(s).mapDirect(*p, src, 1, sys.kernel(0),
                                          *hot,
                                          dst_base + (s - 1) * PAGE_SIZE,
                                          UpdateMode::AUTO_SINGLE),
                  err::OK);
        Translation t = p->space().translate(src, true);
        ASSERT_TRUE(t.ok());
        scheduleStores(sys, s, t.paddr, kStores, ONE_US, 200);
    }

    sys.runFor(50 * ONE_MS);

    // The congestion signal made the full round trip...
    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node0.ni.ecnMarksSeen"), 0u);
    EXPECT_GT(snap.at("node0.ni.ecnEchoesSent"), 0u);
    std::uint64_t backoffs = 0;
    for (NodeId s = 1; s <= 3; ++s)
        backoffs +=
            snap.at("node" + std::to_string(s) + ".ni.retx.ecnBackoffs");
    EXPECT_GT(backoffs, 0u);

    // ...and shaped, not corrupted, the flow: exact delivery.
    for (NodeId s = 1; s <= 3; ++s) {
        EXPECT_EQ(sys.node(s).ni.retransmitBuffer().windowFill(0), 0u);
        Translation dt = hot->space().translate(
            dst_base + (s - 1) * PAGE_SIZE, false);
        ASSERT_TRUE(dt.ok());
        for (unsigned i = 0; i < kStores; ++i) {
            EXPECT_EQ(sys.node(0).mem.readInt(dt.paddr + 4 * i, 4),
                      0xC0DE0000u + i)
                << "sender " << s << " word " << i;
        }
    }
}

TEST(Overload, AdmissionRejectsSendsTowardSuspectPeer)
{
    // A partition silences the peer's heartbeats. Once it turns
    // SUSPECT, admission control must refuse new work up front with
    // WOULDBLOCK -- and admit again after the partition heals.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.health.enabled = true;
    cfg.admission.enabled = true;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(2);
    Addr dst = b->allocate(2);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);

    sys.eventQueue().scheduleFn(
        [&sys]() {
            sys.backplane().router(0).setLinkDead(Router::EAST, true);
            sys.backplane().router(1).setLinkDead(Router::WEST, true);
        },
        ONE_MS, EventPriority::DEFAULT, "partition");

    // suspectTimeout (400us) past the partition, well before
    // deadTimeout (1200us): the peer is SUSPECT, not yet DEAD.
    sys.runFor(ONE_MS + 700 * ONE_US);
    ASSERT_EQ(sys.kernel(0).health()->peerState(1),
              PeerHealth::SUSPECT);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src + PAGE_SIZE, 1,
                                      sys.kernel(1), *b,
                                      dst + PAGE_SIZE,
                                      UpdateMode::AUTO_SINGLE),
              err::WOULDBLOCK);
    EXPECT_GE(sys.snapshot().at("node0.kernel.sendsRejected"), 1u);

    // Heal; heartbeats resume; admission must reopen.
    sys.backplane().router(0).setLinkDead(Router::EAST, false);
    sys.backplane().router(1).setLinkDead(Router::WEST, false);
    sys.runFor(5 * ONE_MS);
    ASSERT_EQ(sys.kernel(0).health()->peerState(1), PeerHealth::ALIVE);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src + PAGE_SIZE, 1,
                                      sys.kernel(1), *b,
                                      dst + PAGE_SIZE,
                                      UpdateMode::AUTO_SINGLE),
              err::OK);
}

TEST(Overload, AdmissionFailsFastWhenWindowStaysFull)
{
    // A black-hole path keeps the reliability window full. After
    // windowFullAfter of no progress, new sends must fail fast with
    // WOULDBLOCK instead of piling onto a queue that cannot drain.
    FaultModel::Params faults;
    faults.dropProb = 1.0;
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.maxRetries = 50;     // outlive the test window
    cfg.linkFaults = faults;
    cfg.admission.enabled = true;
    cfg.admission.windowFullAfter = 500 * ONE_US;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(2);
    Addr dst = b->allocate(2);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    Translation t = a->space().translate(src, true);
    ASSERT_TRUE(t.ok());

    // More stores than windowPackets: the window jams at its limit.
    scheduleStores(sys, 0, t.paddr, 40, ONE_US, 100);
    sys.runFor(2 * ONE_MS);

    ASSERT_GT(sys.node(0).ni.retransmitBuffer().windowFullSince(1), 0u);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src + PAGE_SIZE, 1,
                                      sys.kernel(1), *b,
                                      dst + PAGE_SIZE,
                                      UpdateMode::AUTO_SINGLE),
              err::WOULDBLOCK);
    EXPECT_GE(sys.snapshot().at("node0.kernel.sendsRejected"), 1u);
}

TEST(Overload, SendOverflowShedsLoadWithoutCorruption)
{
    // Host-driven stores outrun a tiny outgoing FIFO. The NI must
    // shed the excess gracefully -- counted drops before a sequence
    // number is consumed, so the reliable stream stays gapless -- and
    // every word that does arrive is one the sender really stored.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.ni.outFifo = PacketFifo::Params{512, 384, 128};
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    Translation t = a->space().translate(src, true);
    ASSERT_TRUE(t.ok());

    constexpr unsigned kStores = 200;
    scheduleStores(sys, 0, t.paddr, kStores, ONE_US, 10);
    sys.runFor(50 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node0.ni.sendOverflowDrops"), 0u);
    // The stream still quiesces: everything sequenced was delivered.
    EXPECT_EQ(sys.node(0).ni.retransmitBuffer().windowFill(1), 0u);
    EXPECT_EQ(snap.at("node0.ni.retx.channelsFailed"), 0u);

    // Safety: delivered words are exact copies, dropped words leave
    // their destination slot untouched (zero).
    Translation dt = b->space().translate(dst, false);
    ASSERT_TRUE(dt.ok());
    unsigned delivered = 0;
    for (unsigned i = 0; i < kStores; ++i) {
        auto v = static_cast<std::uint32_t>(
            sys.node(1).mem.readInt(dt.paddr + 4 * i, 4));
        if (v == 0)
            continue;   // shed
        EXPECT_EQ(v, 0xC0DE0000u + i) << "word " << i;
        ++delivered;
    }
    EXPECT_EQ(delivered + snap.at("node0.ni.sendOverflowDrops"), kStores);
}

TEST(Overload, WatchdogFlagsStallThenClearsAfterRecovery)
{
    // A total black hole parks the whole backlog: the window jams,
    // backed-off retransmissions stretch far apart, and between them
    // nothing moves. The watchdog must flag the stall (once per
    // episode) while work is queued, then clear it when the path
    // heals and the backlog drains.
    FaultModel::Params faults;
    faults.dropProb = 1.0;
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.rtoBase = 50 * ONE_US;
    cfg.ni.reliability.rtoMax = 2 * ONE_MS;
    cfg.ni.reliability.maxRetries = 30;
    cfg.ni.watchdogPeriod = 200 * ONE_US;
    cfg.linkFaults = faults;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);
    Translation t = a->space().translate(src, true);
    ASSERT_TRUE(t.ok());

    // More stores than windowPackets: the excess parks in the
    // outgoing FIFO, which is the queued work the watchdog monitors.
    constexpr unsigned kStores = 60;
    scheduleStores(sys, 0, t.paddr, kStores, ONE_US, 100);

    sys.runFor(8 * ONE_MS);
    EXPECT_GE(sys.snapshot().at("node0.ni.watchdogStalls"), 1u);

    // Heal the links; the next backed-off retransmission gets through
    // and the pipeline restarts.
    sys.backplane().router(0).setFaultModel(Router::EAST,
                                            FaultModel::Params{});
    sys.backplane().router(1).setFaultModel(Router::WEST,
                                            FaultModel::Params{});
    sys.runFor(12 * ONE_MS);

    EXPECT_FALSE(sys.node(0).ni.progressStalled());
    EXPECT_EQ(sys.node(0).ni.retransmitBuffer().windowFill(1), 0u);
    EXPECT_EQ(sys.snapshot().at("node0.ni.retx.channelsFailed"), 0u);
    Translation dt = b->space().translate(dst, false);
    ASSERT_TRUE(dt.ok());
    for (unsigned i = 0; i < kStores; ++i)
        EXPECT_EQ(sys.node(1).mem.readInt(dt.paddr + 4 * i, 4),
                  0xC0DE0000u + i);
}

} // namespace
} // namespace shrimp
