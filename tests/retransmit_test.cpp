/**
 * @file
 * Reliability-layer tests: the end-to-end ACK/NACK retransmission
 * protocol over a faulty backplane (drop, corrupt, duplicate,
 * reorder), plus graceful degradation when a destination becomes
 * unreachable. The CRC tests in reliability_test.cpp show corruption
 * is *detected*; these show that with ni.reliability enabled every
 * mapped word is also *delivered* -- exactly once, in order -- and
 * that a dead channel errors its mappings instead of asserting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;

constexpr int kWords = 256;

/** Two nodes, reliability on, the given link fault mix. */
SystemConfig
faultyConfig(const FaultModel::Params &faults)
{
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.linkFaults = faults;
    return cfg;
}

/** One store per word: dst[i] = 0x1000 + i for i in [0, kWords). */
Program
streamProgram(Addr src)
{
    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, 0x1000);
    pa.movi(R3, 0x1000 + kWords);
    pa.label("loop");
    pa.st(R1, 0, R2, 4);
    pa.addi(R1, 4);
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("loop");
    pa.halt();
    return pa;
}

/** Run the stream and assert every word arrived exact and in place. */
void
runStream(ShrimpSystem &sys, Process &a, Process &b, Addr src, Addr dst,
          Tick settle)
{
    Program pa = streamProgram(src);
    loadProgram(sys.kernel(0), a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(settle);

    for (int i = 0; i < kWords; ++i) {
        ASSERT_EQ(peek32(sys, 1, b, dst + 4 * i),
                  static_cast<std::uint32_t>(0x1000 + i))
            << "word " << i << " wrong or missing";
    }
}

TEST(Retransmit, DropAndCorruptEveryWordDeliveredExactlyOnce)
{
    // The ISSUE acceptance scenario: 5% drop + 1% corrupt on every
    // link, yet the mapped page converges to a bit-exact copy.
    FaultModel::Params faults;
    faults.dropProb = 0.05;
    faults.corruptProb = 0.01;
    faults.seed = 424242;
    ShrimpSystem sys(faultyConfig(faults));

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    runStream(sys, *a, *b, src, dst, 100 * ONE_MS);

    // The fabric really was faulty and the protocol really repaired it.
    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node0.ni.retx.retxTimeout") +
                  snap.at("node0.ni.retx.retxNack"),
              0u);
    EXPECT_GT(snap.at("node1.ni.relAcksSent"), 0u);
    EXPECT_EQ(snap.at("node0.ni.retx.channelsFailed"), 0u);
    EXPECT_EQ(snap.at("node0.ni.relMappingsErrored"), 0u);
    // Everything acknowledged.
    EXPECT_EQ(sys.node(0).ni.retransmitBuffer().windowFill(1), 0u);
}

TEST(Retransmit, StaleEpochDataFencedBeforeMemory)
{
    // The epoch gate in ShrimpNi::sinkDeliver: once the receiver has
    // seen a newer life of the sender, a reliable DATA packet stamped
    // from an older life is dropped and counted before it can touch
    // the channel or memory. The same packet from the current life
    // lands.
    ShrimpSystem sys(faultyConfig({}));
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);
    Translation t = b->space().translate(dst, false);
    ASSERT_TRUE(t.ok());

    auto packet = [&](NetPacket::Kind kind, std::uint32_t epoch,
                      std::uint32_t word) {
        NetPacket pkt;
        pkt.srcNode = 0;
        pkt.dstNode = 1;
        pkt.dstX = static_cast<std::uint16_t>(sys.backplane().xOf(1));
        pkt.dstY = static_cast<std::uint16_t>(sys.backplane().yOf(1));
        pkt.dstPaddr = t.paddr;
        pkt.payload.resize(4);
        std::memcpy(pkt.payload.data(), &word, 4);
        pkt.reliable = true;
        pkt.kind = kind;
        pkt.srcEpoch = epoch;
        pkt.sealCrc();
        return pkt;
    };
    auto stale_drops = [&] {
        return sys.snapshot().at("node1.ni.staleEpochDrops");
    };
    ShrimpNi &rx = sys.node(1).ni;

    // A heartbeat from the sender's second life moves the receive
    // state to epoch 2; a first-life DATA packet is then a relic.
    rx.sinkDeliver(packet(NetPacket::Kind::HEARTBEAT, 2, 0));
    rx.sinkDeliver(packet(NetPacket::Kind::DATA, 1, 0xDEAD'BEEF));
    sys.runFor(ONE_MS);
    EXPECT_EQ(stale_drops(), 1u);
    EXPECT_EQ(peek32(sys, 1, *b, dst), 0u);

    rx.sinkDeliver(packet(NetPacket::Kind::DATA, 2, 0x1234'5678));
    sys.runFor(ONE_MS);
    EXPECT_EQ(stale_drops(), 1u);
    EXPECT_EQ(peek32(sys, 1, *b, dst), 0x1234'5678u);
}

TEST(Retransmit, DuplicatesSuppressed)
{
    FaultModel::Params faults;
    faults.duplicateProb = 0.2;
    faults.seed = 7;
    ShrimpSystem sys(faultyConfig(faults));

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    runStream(sys, *a, *b, src, dst, 50 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node1.ni.relDupsSuppressed"), 0u);
    // Exactly-once: the FIFO only ever saw kWords distinct packets.
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"),
              static_cast<unsigned>(kWords));
}

TEST(Retransmit, ReorderedPacketsRestoredInOrder)
{
    FaultModel::Params faults;
    faults.reorderProb = 0.3;
    faults.seed = 99;
    ShrimpSystem sys(faultyConfig(faults));

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    runStream(sys, *a, *b, src, dst, 50 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node1.ni.relReorderFixes"), 0u);
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"),
              static_cast<unsigned>(kWords));
}

TEST(Retransmit, NackTriggersFastRetransmitBeforeTimeout)
{
    // Clean links; corrupt exactly one packet at the source NI. The
    // receiver's CRC check NACKs it and the copy must arrive via fast
    // retransmit, never waiting out the (long) timeout.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.rtoBase = 10 * ONE_MS;   // timeout = test fails
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    sys.node(0).ni.corruptNextPacket();

    Program pa("a");
    pa.movi(R1, src);
    for (int i = 0; i < 8; ++i)
        pa.sti(R1, 4 * i, 0xB00 + i, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);     // well under rtoBase

    stats::Snapshot snap = sys.snapshot();
    EXPECT_GE(snap.at("node1.ni.relNacksSent"), 1u);
    EXPECT_GE(snap.at("node0.ni.relNacksRcvd"), 1u);
    EXPECT_GE(snap.at("node0.ni.retx.retxNack"), 1u);
    EXPECT_EQ(snap.at("node0.ni.retx.retxTimeout"), 0u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(peek32(sys, 1, *b, dst + 4 * i),
                  static_cast<std::uint32_t>(0xB00 + i));
}

TEST(Retransmit, TimeoutBackoffGrows)
{
    // A black-hole link: every retransmission times out, so the rto
    // must grow exponentially instead of hammering the fabric.
    FaultModel::Params faults;
    faults.dropProb = 1.0;
    SystemConfig cfg = faultyConfig(faults);
    cfg.ni.reliability.rtoBase = 10 * ONE_US;
    cfg.ni.reliability.rtoMax = ONE_MS;
    cfg.ni.reliability.maxRetries = 50;     // stay below the cap
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0xAB, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(5 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    auto &retx = sys.node(0).ni.retransmitBuffer();
    EXPECT_GE(snap.at("node0.ni.retx.retxTimeout"), 3u);
    EXPECT_GT(retx.currentRto(1), cfg.ni.reliability.rtoBase);
    EXPECT_LE(retx.currentRto(1), cfg.ni.reliability.rtoMax);
    EXPECT_EQ(snap.at("node0.ni.retx.channelsFailed"), 0u);
}

TEST(Retransmit, RetryCapDegradesGracefully)
{
    // Retry budget exhausted toward a black hole: the channel fails,
    // the mappings error, the kernel hears about it, and the command
    // page reports the failure to user level -- no assertion anywhere.
    FaultModel::Params faults;
    faults.dropProb = 1.0;
    SystemConfig cfg = faultyConfig(faults);
    cfg.ni.reliability.rtoBase = 10 * ONE_US;
    cfg.ni.reliability.rtoMax = 100 * ONE_US;
    cfg.ni.reliability.maxRetries = 3;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0xCD, 4);
    pa.sti(R1, 4, 0xEF, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(10 * ONE_MS);

    auto &tx = sys.node(0).ni;
    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("node0.ni.retx.channelsFailed"), 1u);
    EXPECT_TRUE(tx.retransmitBuffer().isFailed(1));
    EXPECT_GE(snap.at("node0.ni.relMappingsErrored"), 1u);

    // The kernel callback fired and recorded the failed peer.
    EXPECT_TRUE(sys.kernel(0).peerFailed(1));
    EXPECT_FALSE(sys.kernel(0).peerFailed(0));

    // User level sees the error through the mapping's command page.
    Translation t = a->space().translate(src, false);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(tx.busRead(tx.cmdAddrFor(t.paddr), 8),
              ShrimpNi::statusMapError);

    // The errored mapping stops producing packets: a late store is
    // discarded quietly instead of feeding the dead window.
    std::uint64_t sent_before = snap.at("node0.ni.pktsSent");
    test::poke32(sys, 0, *a, src, 0x11);    // host write, no snoop
    sys.runFor(ONE_MS);
    EXPECT_EQ(sys.snapshot().at("node0.ni.pktsSent"), sent_before);
}

TEST(Retransmit, CleanLinksNoRetransmissions)
{
    // Reliability enabled over a clean fabric must be pure overhead
    // bookkeeping: ACKs flow, nothing retransmits, nothing duplicates.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    runStream(sys, *a, *b, src, dst, 10 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"),
              static_cast<unsigned>(kWords));
    EXPECT_EQ(snap.at("node0.ni.retx.retxTimeout"), 0u);
    EXPECT_EQ(snap.at("node0.ni.retx.retxNack"), 0u);
    EXPECT_EQ(snap.at("node1.ni.relDupsSuppressed"), 0u);
    EXPECT_EQ(snap.at("node1.ni.relNacksSent"), 0u);
    EXPECT_GT(snap.at("node1.ni.relAcksSent"), 0u);
    EXPECT_EQ(snap.at("node0.ni.relAcksRcvd"),
              snap.at("node1.ni.relAcksSent"));
}

TEST(Retransmit, BackoffExponentHonorsCap)
{
    // With a tiny exponent cap the rto must plateau at
    // rtoBase << cap even though rtoMax would allow far more, and the
    // Peak stats must record exactly that plateau.
    FaultModel::Params faults;
    faults.dropProb = 1.0;
    SystemConfig cfg = faultyConfig(faults);
    cfg.ni.reliability.rtoBase = 10 * ONE_US;
    cfg.ni.reliability.rtoMax = 100 * ONE_MS;
    cfg.ni.reliability.backoffExpCap = 3;
    cfg.ni.reliability.maxRetries = 20;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0xAB, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(5 * ONE_MS);

    auto &retx = sys.node(0).ni.retransmitBuffer();
    EXPECT_GE(sys.snapshot().at("node0.ni.retx.retxTimeout"), 8u);
    EXPECT_EQ(retx.peakBackoffExp(), 3.0);
    EXPECT_EQ(retx.peakRto(),
              static_cast<double>(cfg.ni.reliability.rtoBase << 3));
}

TEST(Retransmit, AckNackRideOutLinkOutageTraced)
{
    // A link dies in the middle of an exchange and comes back later.
    // Packets (including ACKs) sent into the outage are lost; the
    // protocol must redeliver everything afterwards, and the event
    // trace must show the outage and the recovery.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.rtoBase = 20 * ONE_US;
    cfg.traceEnabled = true;
    ShrimpSystem sys(cfg);
    EventQueue &eq = sys.eventQueue();

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);
    Translation t = a->space().translate(src, true);
    ASSERT_TRUE(t.ok());

    // 24 host-driven stores: before, during, and after the outage.
    constexpr unsigned kStores = 24;
    for (unsigned i = 0; i < kStores; ++i) {
        Tick at = i < 8    ? 10 * ONE_US + i * ONE_US
                  : i < 16 ? 100 * ONE_US + (i - 8) * 20 * ONE_US
                           : 500 * ONE_US + (i - 16) * ONE_US;
        eq.scheduleFn(
            [&sys, t, i]() {
                std::uint32_t value = 0x600D0000u + i;
                sys.node(0).bus.postWrite(t.paddr + 4 * i, &value, 4,
                                          BusMaster::CPU,
                                          sys.curTick());
            },
            at, EventPriority::DEFAULT, "store");
    }
    // Both directions die at 50us and recover at 400us: data packets
    // and the ACK/NACK flow are interrupted mid-exchange.
    eq.scheduleFn([&sys]() {
        sys.backplane().router(0).setLinkDead(Router::EAST, true);
        sys.backplane().router(1).setLinkDead(Router::WEST, true);
    }, 50 * ONE_US, EventPriority::DEFAULT, "link down");
    eq.scheduleFn([&sys]() {
        sys.backplane().router(0).setLinkDead(Router::EAST, false);
        sys.backplane().router(1).setLinkDead(Router::WEST, false);
    }, 400 * ONE_US, EventPriority::DEFAULT, "link up");

    sys.runFor(10 * ONE_MS);

    // Exactly-once in-order delivery of every store despite the hole.
    Translation td = b->space().translate(dst, false);
    ASSERT_TRUE(td.ok());
    for (unsigned i = 0; i < kStores; ++i) {
        EXPECT_EQ(sys.node(1).mem.readInt(td.paddr + 4 * i, 4),
                  0x600D0000u + i)
            << "word " << i;
    }
    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node0.ni.retx.retxTimeout") +
                  snap.at("node0.ni.retx.retxNack"),
              0u);
    EXPECT_EQ(snap.at("node0.ni.retx.channelsFailed"), 0u);

    // The trace recorded the outage and the protocol's response.
    ASSERT_NE(sys.tracer(), nullptr);
    std::ostringstream json;
    sys.tracer()->exportJson(json);
    const std::string trace = json.str();
    EXPECT_NE(trace.find("linkDead"), std::string::npos);
    EXPECT_NE(trace.find("linkAlive"), std::string::npos);
    EXPECT_NE(trace.find("retxTimeout"), std::string::npos);
    EXPECT_NE(trace.find("ackSend"), std::string::npos);
}

// ---- standalone RetransmitBuffer unit tests ------------------------
// The congestion-control machinery (AIMD window, retransmit pacer,
// seeded rto jitter, receiver-regression detection) is simplest to pin
// down against a bare RetransmitBuffer with scripted ACK/NACK inputs.

/** Reliability with the AIMD congestion window switched on. */
ReliabilityParams
ccParams()
{
    ReliabilityParams p;
    p.enabled = true;
    p.rtoBase = 10 * ONE_US;
    p.rtoMax = ONE_MS;
    p.congestion.enabled = true;
    return p;
}

/** Minimal reliable DATA packet toward @p dst, sequence assigned. */
NetPacket
relPkt(RetransmitBuffer &rb, NodeId dst)
{
    NetPacket p;
    p.srcNode = 0;
    p.dstNode = dst;
    p.reliable = true;
    p.kind = NetPacket::Kind::DATA;
    p.rseq = rb.assignSeq(dst);
    return p;
}

TEST(RetransmitUnit, AimdGrowsOnCleanAcksHalvesOnEcnEcho)
{
    EventQueue eq;
    RetransmitBuffer rb(eq, "rb", ccParams(), 4, {}, nullptr);

    // Run above tick 0 so the cut rate limiter's timestamps are live.
    // Each step acknowledges everything it records, so no
    // retransmission timer stays armed between the scheduled steps.
    eq.scheduleFn(
        [&] {
            // Boot window: initialWindowPackets, then the limit binds.
            EXPECT_EQ(rb.congestionWindow(1), 4u);
            for (int i = 0; i < 4; ++i) {
                ASSERT_TRUE(rb.hasRoom(1));
                rb.record(relPkt(rb, 1));
            }
            EXPECT_FALSE(rb.hasRoom(1));

            // One clean congestion window of ACKs = +1 packet.
            rb.onAck(1, 4);
            EXPECT_EQ(rb.congestionWindow(1), 5u);

            // Another clean window: additive, one more packet.
            for (int i = 0; i < 5; ++i)
                rb.record(relPkt(rb, 1));
            rb.onAck(1, 9);
            EXPECT_EQ(rb.congestionWindow(1), 6u);
        },
        ONE_US, EventPriority::DEFAULT, "aimd additive increase");

    // An ECN echo halves instead of growing (an echo needs no ACK
    // progress to count: the receiver saw congestion, that is enough).
    eq.scheduleFn(
        [&] {
            rb.onAck(1, 9, true);
            EXPECT_EQ(rb.congestionWindow(1), 3u);
            EXPECT_EQ(
                test::snapshotOf(rb.statGroup()).at("retx.ecnBackoffs"),
                1u);
        },
        2 * ONE_US, EventPriority::DEFAULT, "ecn halves");

    // A burst of echoes within one rtoBase is a single congestion
    // event: the second halving must be suppressed...
    eq.scheduleFn(
        [&] {
            rb.onAck(1, 9, true);
            EXPECT_EQ(rb.congestionWindow(1), 3u);
            EXPECT_EQ(
                test::snapshotOf(rb.statGroup()).at("retx.ecnBackoffs"),
                1u);
        },
        3 * ONE_US, EventPriority::DEFAULT, "cut rate-limited");

    // ...but after an rtoBase it cuts again, down to the floor of
    // one packet, which still admits (exactly) one packet.
    eq.scheduleFn(
        [&] {
            rb.onAck(1, 9, true);
            EXPECT_EQ(rb.congestionWindow(1), 1u);
            ASSERT_TRUE(rb.hasRoom(1));
            rb.record(relPkt(rb, 1));
            EXPECT_FALSE(rb.hasRoom(1));
            rb.onAck(1, 10);    // drain; stop the timer
        },
        2 * ONE_US + ccParams().rtoBase + 1, EventPriority::DEFAULT,
        "cut to floor");
    eq.run();
}

TEST(RetransmitUnit, WindowSpaceCallbackReentrancyFlattened)
{
    // A windowSpace callback that synchronously feeds more ACKs back
    // into the buffer must not recurse: the nested notification is
    // deferred and replayed by the outer invocation.
    EventQueue eq;
    ReliabilityParams p;
    p.enabled = true;
    RetransmitBuffer *rbp = nullptr;
    int depth = 0, max_depth = 0, calls = 0;
    RetransmitBuffer::Hooks hooks;
    hooks.windowSpace = [&] {
        ++depth;
        ++calls;
        max_depth = std::max(max_depth, depth);
        if (calls == 1)
            rbp->onAck(1, 2);   // re-entrant progress from the hook
        --depth;
    };
    RetransmitBuffer rb(eq, "rb", p, 4, hooks, nullptr);
    rbp = &rb;

    rb.record(relPkt(rb, 1));
    rb.record(relPkt(rb, 1));
    rb.onAck(1, 1);

    EXPECT_EQ(max_depth, 1);    // never nested
    EXPECT_EQ(calls, 2);        // the deferred wakeup was replayed
    EXPECT_EQ(rb.windowFill(1), 0u);
}

TEST(RetransmitUnit, PacerDefersTimeoutRetransmitsWithoutRetryCharge)
{
    // Four destinations time out in the same pass with only two pace
    // tokens in the bucket: two retransmit, two are deferred to the
    // next token with no retry charged and no backoff growth.
    EventQueue eq;
    ReliabilityParams p;
    p.enabled = true;
    p.rtoBase = 10 * ONE_US;
    p.congestion.paceBucketPackets = 2;
    p.congestion.paceRefillInterval = 100 * ONE_US;
    unsigned retx = 0;
    RetransmitBuffer::Hooks hooks;
    hooks.retransmit = [&](NetPacket &&) { ++retx; };
    RetransmitBuffer rb(eq, "rb", p, 5, hooks, nullptr);

    for (NodeId d = 1; d <= 4; ++d)
        rb.record(relPkt(rb, d));

    eq.scheduleFn(
        [&] {
            EXPECT_EQ(retx, 2u);    // bucket size, not backlog size
            EXPECT_EQ(
                test::snapshotOf(rb.statGroup()).at("retx.retxPaced"), 2u);
            EXPECT_EQ(rb.peakPacedRetransmits(), 2.0);
            // The sent pair was charged a retry, the deferred pair
            // was not, and the deferred deadline is the next token.
            EXPECT_EQ(rb.headRetries(1), 1u);
            EXPECT_EQ(rb.headRetries(2), 1u);
            EXPECT_EQ(rb.headRetries(3), 0u);
            EXPECT_EQ(rb.headRetries(4), 0u);
            EXPECT_EQ(rb.armedDeadline(3),
                      p.congestion.paceRefillInterval);
            for (NodeId d = 1; d <= 4; ++d)
                rb.onAck(d, 1);     // drain; stop the timers
        },
        p.rtoBase + 1, EventPriority::DEFAULT, "probe after pass");
    eq.run();
}

/** Ticks at which a lone black-holed packet is retransmitted. */
std::vector<Tick>
jitteredSchedule(std::uint64_t seed)
{
    EventQueue eq;
    ReliabilityParams p;
    p.enabled = true;
    p.rtoBase = 10 * ONE_US;
    p.rtoMax = ONE_MS;
    p.maxRetries = 5;
    p.backoffExpCap = 0;    // constant rto: gaps isolate the jitter
    p.congestion.rtoJitterPermille = 500;
    p.congestion.jitterSeed = seed;
    std::vector<Tick> at;
    RetransmitBuffer::Hooks hooks;
    hooks.retransmit = [&](NetPacket &&) { at.push_back(eq.curTick()); };
    RetransmitBuffer rb(eq, "rb", p, 2, hooks, nullptr);
    rb.record(relPkt(rb, 1));
    eq.run();   // retries exhaust, the channel fails, the queue drains
    return at;
}

TEST(RetransmitUnit, RtoJitterSeededDeterministicAndBounded)
{
    std::vector<Tick> a = jitteredSchedule(42);
    std::vector<Tick> b = jitteredSchedule(42);
    std::vector<Tick> c = jitteredSchedule(43);

    ASSERT_EQ(a.size(), 5u);    // maxRetries
    EXPECT_EQ(a, b);            // same seed, same schedule
    EXPECT_NE(a, c);            // different seed desynchronizes

    // Every gap is rto plus at most 500 permille of jitter; the first
    // deadline (armed by record, not by a retransmission) is unjittered.
    constexpr Tick rto = 10 * ONE_US;
    EXPECT_EQ(a[0], rto);
    for (std::size_t i = 1; i < a.size(); ++i) {
        Tick gap = a[i] - a[i - 1];
        EXPECT_GE(gap, rto);
        EXPECT_LE(gap, rto + rto / 2);
    }
}

TEST(RetransmitUnit, RepeatedStaleNackFailsChannelFast)
{
    // A NACK for a retired sequence can cross a cumulative ACK once;
    // a repeat for the same sequence proves the receiver's state
    // regressed (late recovery reset) and the stream can never
    // resynchronize. The channel must fail immediately instead of
    // black-holing the whole retry budget.
    EventQueue eq;
    ReliabilityParams p;
    p.enabled = true;
    p.rtoBase = 10 * ONE_US;
    NodeId failed_dst = INVALID_NODE;
    RetransmitBuffer::Hooks hooks;
    hooks.failed = [&](NodeId d) { failed_dst = d; };
    RetransmitBuffer rb(eq, "rb", p, 4, hooks, nullptr);

    for (int i = 0; i < 6; ++i)
        rb.record(relPkt(rb, 1));
    rb.onAck(1, 4);     // window base now 4, packets 4..5 pending

    rb.onNack(1, 2);    // stale: could be a crossed ACK -- observe only
    EXPECT_FALSE(rb.isFailed(1));
    rb.onNack(1, 2);    // same-tick duplicate of one NACK: still no fail
    EXPECT_FALSE(rb.isFailed(1));
    EXPECT_EQ(test::snapshotOf(rb.statGroup()).at("retx.staleNackFails"),
              0u);

    eq.scheduleFn(
        [&] {
            rb.onNack(1, 2);    // repeat after real time: regression
            EXPECT_TRUE(rb.isFailed(1));
            stats::Snapshot snap = test::snapshotOf(rb.statGroup());
            EXPECT_EQ(snap.at("retx.staleNackFails"), 1u);
            EXPECT_EQ(snap.at("retx.channelsFailed"), 1u);
            EXPECT_EQ(failed_dst, 1u);
            EXPECT_EQ(rb.windowFill(1), 0u);    // window discarded
        },
        p.rtoBase / 2, EventPriority::DEFAULT, "repeat stale nack");

    // A NACK at (not below) the window base is a normal fast
    // retransmit, never a regression, however often it repeats.
    eq.scheduleFn(
        [&] {
            for (int i = 0; i < 4; ++i)
                rb.record(relPkt(rb, 2));
            rb.onAck(2, 2);
            rb.onNack(2, 2);
            rb.onNack(2, 2);
            EXPECT_FALSE(rb.isFailed(2));
            EXPECT_EQ(test::snapshotOf(rb.statGroup())
                          .at("retx.staleNackFails"),
                      1u);     // unchanged
            rb.onAck(2, 4);     // drain; stop the timer
        },
        p.rtoBase / 2 + 1, EventPriority::DEFAULT, "in-window nacks");
    eq.run();
}

} // namespace
} // namespace shrimp
