/**
 * @file
 * Integration tests for the SHRIMP network interface on a two-node
 * system: automatic update (single-write and blocked-write),
 * deliberate update through VM-mapped command pages, CRC and NIPT
 * protection drops, split-page mappings, arrival interrupts, and the
 * outgoing-FIFO flow control.
 */

#include <gtest/gtest.h>

#include "msg/deliberate.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

struct NiFixture : ::testing::Test
{
    std::unique_ptr<ShrimpSystem> sys;
    Process *procA = nullptr;
    Process *procB = nullptr;

    void
    build(SystemConfig cfg = test::twoNodeConfig())
    {
        sys = std::make_unique<ShrimpSystem>(cfg);
        procA = sys->kernel(0).createProcess("A");
        procB = sys->kernel(1).createProcess("B");
    }

    void
    runAll(Tick extra_drain = 200 * ONE_US)
    {
        sys->startAll();
        ASSERT_TRUE(sys->runUntilAllExited());
        sys->runFor(extra_drain);
    }
};

TEST_F(NiFixture, AutoSingleWritePropagates)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    ASSERT_EQ(sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1),
                                       *procB, dst,
                                       UpdateMode::AUTO_SINGLE),
              err::OK);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0x10, 0xfeedf00d, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll();
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0x10), 0xfeedf00du);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.pktsSent"), 1u);
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"), 1u);
}

TEST_F(NiFixture, SingleWriteLatencyUnderTwoMicroseconds)
{
    // H1: on the EISA-based prototype the store-to-memory latency is
    // slightly less than 2 us.
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    Tick delivered_at = 0;
    sys->node(1).ni.onDelivered = [&](const NetPacket &pkt, Tick when) {
        delivered_at = when - pkt.injectedAt;
    };

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 1, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll();
    ASSERT_GT(delivered_at, 0u);
    EXPECT_LT(delivered_at, 2 * ONE_US);
    EXPECT_GT(delivered_at, ONE_US / 2);
}

TEST_F(NiFixture, NextGenDatapathUnderOneMicrosecond)
{
    // H2: bypassing the EISA bus brings latency under 1 us.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.nextGenDatapath = true;
    build(cfg);
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    Tick latency = 0;
    sys->node(1).ni.onDelivered = [&](const NetPacket &pkt, Tick when) {
        latency = when - pkt.injectedAt;
    };

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 1, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll();
    ASSERT_GT(latency, 0u);
    EXPECT_LT(latency, ONE_US);
}

TEST_F(NiFixture, BlockedWriteMergesConsecutiveStores)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_BLOCK);

    // 160 stores: the first 128 fill a 512-byte packet, which leaves
    // at once; the merge timer flushes the trailing 32.
    Program pa("a");
    pa.movi(R1, src);
    for (int i = 0; i < 160; ++i)
        pa.sti(R1, 4 * i, 0x100 + i, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(ONE_MS);
    for (int i = 0; i < 160; ++i) {
        EXPECT_EQ(peek32(*sys, 1, *procB, dst + 4 * i),
                  static_cast<std::uint32_t>(0x100 + i));
    }
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.pktsSent"), 2u);
    EXPECT_EQ(snap.at("node0.ni.mergedWrites"), 158u);
    // Only the trailing buffer is a timer flush; the full one is not.
    EXPECT_EQ(snap.at("node0.ni.mergeFlushTimeout"), 1u);
}

TEST_F(NiFixture, BlockedWriteNonConsecutiveSplitsPackets)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_BLOCK);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 1, 4);
    pa.sti(R1, 0x100, 2, 4);    // gap: breaks the merge
    pa.sti(R1, 0x104, 3, 4);    // consecutive with the previous
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(ONE_MS);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0), 1u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0x100), 2u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0x104), 3u);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.pktsSent"), 2u);
    // The gap's flush is not a timer flush; the trailing one is.
    EXPECT_EQ(snap.at("node0.ni.mergeFlushTimeout"), 1u);
}

TEST_F(NiFixture, DeliberateUpdateViaCommandPage)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::DELIBERATE);
    Addr cmd = sys->kernel(0).mapCommandPages(*procA, src, 1);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(src);

    // Fill 64 words locally, then a deliberate send of 64 words.
    Program pa("a");
    pa.movi(R1, src);
    for (int i = 0; i < 64; ++i)
        pa.sti(R1, 4 * i, 0xc0de0000 + i, 4);
    pa.movi(R3, src);
    pa.movi(R1, 256);
    msg::emitDeliberateSendSingle(pa, cmd_delta, "send", "multi");
    // Wait for completion so the test can also check the status read.
    pa.label("wait");
    msg::emitDeliberateCheck(pa);
    pa.jnz("wait");
    pa.halt();
    pa.label("multi");      // not used in the single-page case
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(ONE_MS);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(peek32(*sys, 1, *procB, dst + 4 * i),
                  0xc0de0000u + i);
    }
    // Before the send command, local stores produced no packets: the
    // transfer went out as DMA chunks only.
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.dma.transfers"), 1u);
    EXPECT_EQ(snap.at("node0.ni.dma.bytes"), 256u);
}

TEST_F(NiFixture, DeliberateMultiPageSend)
{
    build();
    Addr src = procA->allocate(3);
    Addr dst = procB->allocate(3);
    sys->kernel(0).mapDirect(*procA, src, 3, sys->kernel(1), *procB,
                             dst, UpdateMode::DELIBERATE);
    Addr cmd = sys->kernel(0).mapCommandPages(*procA, src, 3);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(src);

    // Fill three pages with a pattern via host poke (faster test).
    for (Addr off = 0; off < 3 * PAGE_SIZE; off += 4)
        poke32(*sys, 0, *procA, src + off,
               static_cast<std::uint32_t>(off / 4 + 1));

    Program pa("a");
    pa.movi(R3, src);
    pa.movi(R1, 3 * PAGE_SIZE);
    msg::emitDeliberateSendSingle(pa, cmd_delta, "send", "multi");
    pa.label("resume");
    pa.label("wait");
    msg::emitDeliberateCheck(pa);
    pa.jnz("wait");
    pa.halt();
    msg::emitDeliberateSendMulti(pa, cmd_delta, "multi", "resume");
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(5 * ONE_MS);
    for (Addr off = 0; off < 3 * PAGE_SIZE; off += 4) {
        ASSERT_EQ(peek32(*sys, 1, *procB, dst + off), off / 4 + 1)
            << "at offset " << off;
    }
    EXPECT_EQ(sys->snapshot().at("node0.ni.dma.transfers"), 3u);
}

TEST_F(NiFixture, CorruptedPacketIsDropped)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    sys->node(0).ni.corruptNextPacket();

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0x1111, 4);   // corrupted en route
    pa.sti(R1, 4, 0x2222, 4);   // arrives fine
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll();
    EXPECT_EQ(sys->snapshot().at("node1.ni.dropsCrc"), 1u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0), 0u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 4), 0x2222u);
}

TEST_F(NiFixture, PacketForUnmappedPageIsDropped)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    // Sabotage the receiver's NIPT: the protection check at the head
    // of the incoming FIFO must drop the packet (Section 4).
    Translation t = procB->space().translate(dst, false);
    sys->node(1).ni.nipt().entry(pageOf(t.paddr)).mappedIn = false;

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0x3333, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll();
    EXPECT_EQ(sys->snapshot().at("node1.ni.dropsUnmapped"), 1u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst), 0u);
}

TEST_F(NiFixture, SplitPageUnalignedMapping)
{
    // Map a 4 KB range starting mid-page: each source page carries a
    // split mapping and data lands at the shifted destination.
    build();
    Addr src_region = procA->allocate(2);
    Addr dst_region = procB->allocate(2);
    Addr src = src_region + 0x800;          // mid-page start
    Addr dst = dst_region + 0x200;          // different alignment
    ASSERT_EQ(sys->kernel(0).mapDirectRange(
                  *procA, src, PAGE_SIZE, sys->kernel(1), *procB, dst,
                  UpdateMode::AUTO_SINGLE),
              err::OK);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0xAAAA0001, 4);           // first byte of the range
    pa.sti(R1, 0x7FC, 0xAAAA0002, 4);       // straddles src page bdry
    pa.sti(R1, 0xFFC, 0xAAAA0003, 4);       // last word of the range
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll();
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0), 0xAAAA0001u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0x7FC), 0xAAAA0002u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0xFFC), 0xAAAA0003u);
}

TEST_F(NiFixture, BidirectionalMappingDoesNotEcho)
{
    // The single-buffering flag is mapped for bidirectional automatic
    // update; incoming DMA writes must not be forwarded back.
    build();
    Addr flagA = procA->allocate(1);
    Addr flagB = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, flagA, 1, sys->kernel(1), *procB,
                             flagB, UpdateMode::AUTO_SINGLE);
    sys->kernel(1).mapDirect(*procB, flagB, 1, sys->kernel(0), *procA,
                             flagA, UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, flagA);
    pa.sti(R1, 0, 7, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.movi(R1, flagB);
    pb.sti(R1, 4, 9, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(ONE_MS);
    EXPECT_EQ(peek32(*sys, 1, *procB, flagB), 7u);
    EXPECT_EQ(peek32(*sys, 0, *procA, flagA + 4), 9u);
    // Exactly one packet each way; echoes would make this explode.
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.pktsSent"), 1u);
    EXPECT_EQ(snap.at("node1.ni.pktsSent"), 1u);
}

TEST_F(NiFixture, OutgoingFifoThresholdStallsCpu)
{
    // Tiny outgoing FIFO: a store storm must trip the threshold
    // interrupt and stall the CPU until the FIFO drains (Section 4),
    // with no packets lost.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.ni.outFifo.capacityBytes = 2048;
    cfg.ni.outFifo.highThresholdBytes = 1024;
    cfg.ni.outFifo.lowThresholdBytes = 256;
    build(cfg);

    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    constexpr int kStores = 256;
    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, 0);
    pa.movi(R3, kStores);
    pa.label("loop");
    pa.st(R1, 0, R2, 4);    // same word over and over
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("loop");
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(20 * ONE_MS);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_GT(snap.at("node0.kernel.fifoStalls"), 0u);
    EXPECT_GT(snap.at("node0.kernel.fifoStallTicks"), 0u);
    EXPECT_EQ(snap.at("node0.ni.pktsSent"),
              static_cast<std::uint64_t>(kStores));
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"),
              static_cast<std::uint64_t>(kStores));
    EXPECT_EQ(peek32(*sys, 1, *procB, dst), kStores - 1u);
}

TEST_F(NiFixture, ArrivalInterruptCountsArrivals)
{
    build();
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE,
                             /*arrival_interrupt=*/true);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 1, 4);
    pa.sti(R1, 4, 2, 4);
    pa.sti(R1, 8, 3, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    runAll(ONE_MS);
    Translation t = procB->space().translate(dst, false);
    EXPECT_EQ(sys->kernel(1).arrivalCount(pageOf(t.paddr)), 3u);
}

TEST_F(NiFixture, DmaStatusReadsReportProgress)
{
    // Claiming a busy engine must fail and the status read must
    // report words remaining with the address-match flag.
    build();
    Addr src = procA->allocate(2);
    Addr dst = procB->allocate(2);
    sys->kernel(0).mapDirect(*procA, src, 2, sys->kernel(1), *procB,
                             dst, UpdateMode::DELIBERATE);

    auto &ni = sys->node(0).ni;
    Translation t = procA->space().translate(src, false);
    Addr src_paddr = t.paddr;

    ASSERT_TRUE(ni.dma().start(src_paddr, 1024));   // one full page
    EXPECT_TRUE(ni.dma().busy());
    // Second start must be refused.
    EXPECT_FALSE(ni.dma().start(src_paddr + PAGE_SIZE, 4));

    std::uint64_t status = ni.dma().statusRead(src_paddr);
    EXPECT_NE(status, dma_status::FREE);
    EXPECT_TRUE(status & dma_status::ADDR_MATCH);
    EXPECT_EQ(status >> dma_status::REMAINING_SHIFT, 1024u);

    std::uint64_t other = ni.dma().statusRead(src_paddr + 64);
    EXPECT_FALSE(other & dma_status::ADDR_MATCH);

    sys->runFor(ONE_MS);
    EXPECT_FALSE(ni.dma().busy());
    EXPECT_EQ(ni.dma().statusRead(src_paddr), dma_status::FREE);
}

TEST_F(NiFixture, DmaCompletionRunsOnceAfterTheLastChunk)
{
    // A kernel-started transfer carries its own completion. It runs
    // once, when the whole page is on the outgoing datapath and the
    // engine is free; a start refused while the engine is busy never
    // runs the completion it was given.
    build();
    Addr src = procA->allocate(2);
    Addr dst = procB->allocate(2);
    sys->kernel(0).mapDirect(*procA, src, 2, sys->kernel(1), *procB,
                             dst, UpdateMode::DELIBERATE);
    auto &dma = sys->node(0).ni.dma();
    Addr src_paddr = procA->space().translate(src, false).paddr;

    unsigned runs = 0, refused_runs = 0;
    bool busy_when_run = true;
    std::uint64_t emitted_when_run = 0;
    ASSERT_TRUE(dma.start(src_paddr, 1024, [&] {
        ++runs;
        busy_when_run = dma.busy();
        emitted_when_run = sys->snapshot().at("node0.ni.bytesSent");
    }));
    EXPECT_FALSE(dma.start(src_paddr + PAGE_SIZE, 4,
                           [&] { ++refused_runs; }));

    sys->runFor(ONE_MS);
    EXPECT_EQ(runs, 1u);
    EXPECT_FALSE(busy_when_run);
    EXPECT_EQ(emitted_when_run, PAGE_SIZE);
    EXPECT_EQ(refused_runs, 0u);
}

TEST_F(NiFixture, AbortedDmaNeverRunsItsCompletion)
{
    build();
    Addr src = procA->allocate(2);
    Addr dst = procB->allocate(2);
    sys->kernel(0).mapDirect(*procA, src, 2, sys->kernel(1), *procB,
                             dst, UpdateMode::DELIBERATE);
    auto &dma = sys->node(0).ni.dma();
    Addr src_paddr = procA->space().translate(src, false).paddr;

    unsigned aborted_runs = 0, next_runs = 0;
    ASSERT_TRUE(dma.start(src_paddr, 1024, [&] { ++aborted_runs; }));
    sys->runFor(10 * ONE_US);
    ASSERT_TRUE(dma.busy());    // mid-page
    dma.abort("test");
    sys->runFor(ONE_MS);
    EXPECT_EQ(aborted_runs, 0u);

    // The engine's next transfer runs only its own completion.
    ASSERT_TRUE(dma.start(src_paddr + PAGE_SIZE, 16,
                          [&] { ++next_runs; }));
    sys->runFor(ONE_MS);
    EXPECT_EQ(next_runs, 1u);
    EXPECT_EQ(aborted_runs, 0u);
}

} // namespace
} // namespace shrimp
