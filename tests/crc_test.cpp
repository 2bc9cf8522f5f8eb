/**
 * @file
 * Unit tests for CRC-16 and the packet format.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/crc.hh"
#include "net/packet.hh"
#include "sim/random.hh"

namespace shrimp
{
namespace
{

/** The textbook MSB-first bitwise CRC-16/CCITT-FALSE. */
std::uint16_t
referenceCrc16(const std::uint8_t *bytes, std::size_t len)
{
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= static_cast<std::uint16_t>(bytes[i]) << 8;
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
    }
    return crc;
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t len)
{
    std::vector<std::uint8_t> v(len);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.below(256));
    return v;
}

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
    EXPECT_EQ(crc16("123456789", 9), 0x29B1);
}

TEST(Crc16, EmptyIsInit)
{
    Crc16 c;
    EXPECT_EQ(c.value(), 0xFFFF);
}

TEST(Crc16, IncrementalMatchesOneShot)
{
    Crc16 c;
    c.update("1234", 4);
    c.update("56789", 5);
    EXPECT_EQ(c.value(), crc16("123456789", 9));
}

TEST(Crc16, MatchesReferenceForEveryShortLength)
{
    Rng rng(11);
    for (std::size_t len = 0; len <= 64; ++len) {
        auto data = randomBytes(rng, len);
        EXPECT_EQ(crc16(data.data(), len), referenceCrc16(data.data(), len))
            << "len " << len;
    }
}

TEST(Crc16, MatchesReferenceForRandomLongLengths)
{
    Rng rng(12);
    for (int i = 0; i < 200; ++i) {
        auto len = static_cast<std::size_t>(rng.inRange(65, 4200));
        auto data = randomBytes(rng, len);
        EXPECT_EQ(crc16(data.data(), len), referenceCrc16(data.data(), len))
            << "len " << len;
    }
}

TEST(Crc16, SplitUpdatesMatchReference)
{
    // Random cut points land on both sides of the 8-byte block / tail
    // boundary in every update() call.
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        auto len = static_cast<std::size_t>(rng.inRange(0, 300));
        auto data = randomBytes(rng, len);
        Crc16 c;
        std::size_t pos = 0;
        while (pos < len) {
            auto step = static_cast<std::size_t>(rng.inRange(0, 20));
            if (step > len - pos)
                step = len - pos;
            c.update(data.data() + pos, step);
            pos += step;
        }
        EXPECT_EQ(c.value(), referenceCrc16(data.data(), len))
            << "len " << len;
    }
}

TEST(Crc16, DetectsSingleBitError)
{
    std::uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint16_t good = crc16(data, sizeof(data));
    data[3] ^= 0x10;
    EXPECT_NE(crc16(data, sizeof(data)), good);
}

TEST(NetPacket, SealAndVerify)
{
    NetPacket pkt;
    pkt.srcNode = 1;
    pkt.dstNode = 2;
    pkt.dstX = 0;
    pkt.dstY = 1;
    pkt.dstPaddr = 0x1234;
    pkt.payload = {0xde, 0xad, 0xbe, 0xef};
    pkt.sealCrc();
    EXPECT_TRUE(pkt.crcOk());

    pkt.payload[2] ^= 1;
    EXPECT_FALSE(pkt.crcOk());
    pkt.payload[2] ^= 1;
    EXPECT_TRUE(pkt.crcOk());

    // Header fields are covered too.
    pkt.dstPaddr ^= 0x8000;
    EXPECT_FALSE(pkt.crcOk());
}

TEST(NetPacket, ComputeCrcIsPinned)
{
    // Wire values of the bitwise implementation, for both formats.
    NetPacket legacy;
    legacy.srcNode = 3;
    legacy.dstNode = 12;
    legacy.dstX = 0;
    legacy.dstY = 3;
    legacy.dstPaddr = 0x12345678;
    for (int i = 0; i < 37; ++i)
        legacy.payload.push_back(static_cast<std::uint8_t>(i * 7 + 1));
    EXPECT_EQ(legacy.computeCrc(), 0xEAA2);

    NetPacket reliable = legacy;
    reliable.reliable = true;
    reliable.kind = NetPacket::Kind::DATA;
    reliable.rseq = 0x1122334455ULL;
    reliable.srcEpoch = 7;
    EXPECT_EQ(reliable.computeCrc(), 0xDDB9);
}

TEST(NetPacket, WireSizeIncludesOverhead)
{
    NetPacket pkt;
    pkt.payload.resize(100);
    EXPECT_EQ(pkt.wireBytes(),
              100 + NetPacket::headerBytes + NetPacket::crcBytes);
}

} // namespace
} // namespace shrimp
