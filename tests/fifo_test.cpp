/**
 * @file
 * Unit tests for the NIC packet FIFOs and their flow-control
 * thresholds (Section 4).
 */

#include <gtest/gtest.h>

#include "nic/packet_fifo.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

NetPacket
pktOfBytes(Addr payload)
{
    NetPacket pkt;
    pkt.payload.assign(payload, 0xAA);
    pkt.sealCrc();
    return pkt;
}

TEST(PacketFifo, FifoOrder)
{
    PacketFifo fifo("f", PacketFifo::Params{});
    for (int i = 0; i < 5; ++i) {
        NetPacket pkt = pktOfBytes(8);
        pkt.seq = i;
        fifo.push(std::move(pkt), 100 * i);
    }
    EXPECT_EQ(fifo.packets(), 5u);
    EXPECT_EQ(fifo.front().ready, 0u);
    EXPECT_EQ(fifo.at(3).pkt.seq, 3u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(fifo.pop().seq, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(fifo.empty());
}

TEST(PacketFifo, ByteAccounting)
{
    PacketFifo fifo("f", PacketFifo::Params{});
    fifo.push(pktOfBytes(100), 0);
    EXPECT_EQ(fifo.fillBytes(),
              100 + NetPacket::headerBytes + NetPacket::crcBytes);
    fifo.pop();
    EXPECT_EQ(fifo.fillBytes(), 0u);
}

TEST(PacketFifo, ThresholdCallbacksWithHysteresis)
{
    PacketFifo::Params params;
    params.capacityBytes = 1000;
    params.highThresholdBytes = 500;
    params.lowThresholdBytes = 200;
    PacketFifo fifo("f", params);

    int above = 0, drained = 0;
    fifo.onAboveThreshold = [&] { ++above; };
    fifo.onDrained = [&] { ++drained; };

    // 100-byte packets: 82-byte payload + 18 overhead.
    for (int i = 0; i < 5; ++i)
        fifo.push(pktOfBytes(82), 0);       // fill = 500, not above
    EXPECT_EQ(above, 0);
    fifo.push(pktOfBytes(82), 0);           // 600 > 500
    EXPECT_EQ(above, 1);
    fifo.push(pktOfBytes(82), 0);           // stays above: no refire
    EXPECT_EQ(above, 1);

    // Drain: crossing to <= 200 fires once.
    while (fifo.fillBytes() > 200)
        fifo.pop();
    EXPECT_EQ(drained, 1);
    while (!fifo.empty())
        fifo.pop();
    EXPECT_EQ(drained, 1);
}

TEST(PacketFifo, WouldFitAndOverflowPanics)
{
    PacketFifo::Params params;
    params.capacityBytes = 200;
    params.highThresholdBytes = 200;
    params.lowThresholdBytes = 0;
    PacketFifo fifo("f", params);

    EXPECT_TRUE(fifo.wouldFit(200));
    fifo.push(pktOfBytes(100), 0);          // 118 bytes
    EXPECT_FALSE(fifo.wouldFit(100));
    EXPECT_THROW(fifo.push(pktOfBytes(100), 0), std::logic_error);
}

TEST(PacketFifo, InconsistentThresholdsPanic)
{
    PacketFifo::Params params;
    params.lowThresholdBytes = 900;
    params.highThresholdBytes = 500;
    EXPECT_THROW(PacketFifo("f", params), std::logic_error);
}

TEST(PacketFifo, TracksPeakFill)
{
    PacketFifo fifo("f", PacketFifo::Params{});
    fifo.push(pktOfBytes(100), 0);
    fifo.push(pktOfBytes(100), 0);
    fifo.pop();
    fifo.pop();
    EXPECT_EQ(test::snapshotOf(fifo.statGroup()).at("f.pushes"), 2u);
    EXPECT_EQ(fifo.maxFillBytes(), 2u * 118u);
    EXPECT_TRUE(fifo.empty());
}

TEST(PacketFifo, PeakFillResets)
{
    // Regression: the peak used to live in shadow state the stats
    // reset never touched, so post-reset peaks below the old
    // high-water mark were reported as the stale pre-reset value.
    PacketFifo fifo("f", PacketFifo::Params{});
    fifo.push(pktOfBytes(1000), 0);     // peak 1018
    fifo.pop();
    EXPECT_EQ(fifo.maxFillBytes(), 1018u);

    fifo.statGroup().resetAll();
    EXPECT_EQ(fifo.maxFillBytes(), 0u);

    fifo.push(pktOfBytes(100), 0);      // 118 -- well below 1018
    EXPECT_EQ(fifo.maxFillBytes(), 118u);
    // Counters restarted too.
    EXPECT_EQ(test::snapshotOf(fifo.statGroup()).at("f.pushes"), 1u);
}

TEST(PacketFifo, ThresholdExactLanding)
{
    // Pin the documented edge semantics: a fill of exactly the high
    // threshold is still "below"; a pop landing exactly on the low
    // threshold does fire onDrained.
    PacketFifo::Params params;
    params.capacityBytes = 1000;
    params.highThresholdBytes = 354;    // 3 x 118
    params.lowThresholdBytes = 118;     // 1 x 118
    PacketFifo fifo("f", params);

    int above = 0, drained = 0;
    fifo.onAboveThreshold = [&] { ++above; };
    fifo.onDrained = [&] { ++drained; };

    fifo.push(pktOfBytes(100), 0);
    fifo.push(pktOfBytes(100), 0);
    fifo.push(pktOfBytes(100), 0);      // fill == high: NOT above
    EXPECT_EQ(above, 0);
    EXPECT_TRUE(fifo.belowHighThreshold());

    fifo.push(pktOfBytes(100), 0);      // 472 > 354: fires once
    EXPECT_EQ(above, 1);
    EXPECT_FALSE(fifo.belowHighThreshold());

    fifo.pop();                         // 354: still above low, no fire
    EXPECT_EQ(drained, 0);
    fifo.pop();                         // 236 > 118: no fire
    EXPECT_EQ(drained, 0);
    fifo.pop();                         // exactly 118: fires
    EXPECT_EQ(drained, 1);
    fifo.pop();                         // 0: already below, no refire
    EXPECT_EQ(drained, 1);

    // Climbing back up re-arms the edge trigger.
    fifo.push(pktOfBytes(100), 0);
    fifo.push(pktOfBytes(100), 0);
    fifo.push(pktOfBytes(100), 0);
    fifo.push(pktOfBytes(100), 0);
    EXPECT_EQ(above, 2);
}

} // namespace
} // namespace shrimp
