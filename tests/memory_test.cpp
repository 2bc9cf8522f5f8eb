/**
 * @file
 * Unit tests for the memory subsystem: MainMemory (including its
 * sparse page store), XpressBus (decode, occupancy, snooping),
 * EisaBus, Cache (per-page policies, write buffer, snoop-invalidate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/cache.hh"
#include "mem/eisa_bus.hh"
#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "msg/deliberate.hh"
#include "sim/random.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

struct SnoopRecorder : BusSnooper
{
    struct Rec
    {
        Addr paddr;
        std::vector<std::uint8_t> data;
        BusMaster master;
        Tick when;
    };
    std::vector<Rec> recs;
    EventQueue *eq = nullptr;

    void
    snoopWrite(Addr paddr, const void *buf, Addr len,
               BusMaster master) override
    {
        Rec r;
        r.paddr = paddr;
        r.data.resize(len);
        std::memcpy(r.data.data(), buf, len);
        r.master = master;
        r.when = eq->curTick();
        recs.push_back(std::move(r));
    }
};

struct MemFixture : ::testing::Test
{
    EventQueue eq;
    MainMemory mem{eq, "mem", 1 * 1024 * 1024};
    XpressBus bus{eq, "bus"};

    void
    SetUp() override
    {
        bus.addTarget(0, mem.size(), &mem);
    }
};

TEST_F(MemFixture, FunctionalReadWrite)
{
    std::uint32_t v = 0xdeadbeef;
    mem.write(0x1000, &v, 4);
    EXPECT_EQ(mem.readInt(0x1000, 4), 0xdeadbeefu);
    EXPECT_EQ(mem.readInt(0x1002, 2), 0xdeadu);
    EXPECT_EQ(mem.numPages(), 256u);
}

TEST_F(MemFixture, OutOfRangeAccessPanics)
{
    std::uint8_t b = 0;
    EXPECT_THROW(mem.write(mem.size(), &b, 1), std::logic_error);
    EXPECT_THROW(mem.readInt(mem.size() - 1, 4), std::logic_error);
}

TEST_F(MemFixture, BusDecodesToTarget)
{
    EXPECT_EQ(bus.targetFor(0), &mem);
    EXPECT_EQ(bus.targetFor(mem.size() - 1), &mem);
    EXPECT_EQ(bus.targetFor(mem.size()), nullptr);
}

TEST_F(MemFixture, BusOccupancySerializes)
{
    // Two back-to-back 8-byte writes: 2 cycles each at 30 ns/cycle.
    auto g1 = bus.acquire(0, 8);
    auto g2 = bus.acquire(0, 8);
    EXPECT_EQ(g1.start, 0u);
    EXPECT_EQ(g1.end, 2 * 30000u);
    EXPECT_EQ(g2.start, g1.end);
    // Idle gap honoured (start aligns up to the next bus clock edge).
    auto g3 = bus.acquire(g2.end + ONE_US, 8);
    EXPECT_GE(g3.start, g2.end + ONE_US);
    EXPECT_LT(g3.start, g2.end + ONE_US + bus.clockPeriod());
}

TEST_F(MemFixture, PostWriteIsFunctionalNowSnoopedAtGrant)
{
    SnoopRecorder snoop;
    snoop.eq = &eq;
    bus.addSnooper(&snoop);

    std::uint32_t v = 0x12345678;
    // Make the bus busy first so the snoop is visibly delayed.
    bus.acquire(0, 64);
    auto g = bus.postWrite(0x2000, &v, 4, BusMaster::CPU, 0);
    EXPECT_GT(g.start, 0u);

    // Functional effect is immediate.
    EXPECT_EQ(mem.readInt(0x2000, 4), 0x12345678u);
    // Snoop fires at the grant time with the data.
    EXPECT_TRUE(snoop.recs.empty());
    eq.run();
    ASSERT_EQ(snoop.recs.size(), 1u);
    EXPECT_EQ(snoop.recs[0].when, g.start);
    EXPECT_EQ(snoop.recs[0].paddr, 0x2000u);
    EXPECT_EQ(snoop.recs[0].master, BusMaster::CPU);
    std::uint32_t snooped;
    std::memcpy(&snooped, snoop.recs[0].data.data(), 4);
    EXPECT_EQ(snooped, 0x12345678u);
}

TEST_F(MemFixture, OverlappingTargetsPanic)
{
    MainMemory other(eq, "other", 64 * 1024);
    EXPECT_THROW(bus.addTarget(0x1000, 0x1000, &other),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// Sparse page store: a null page reads as zeros, a write allocates
// exactly the pages it touches.
// ---------------------------------------------------------------------

TEST(SparseMemory, FreshMemoryReadsZeroAndHoldsNoPages)
{
    EventQueue eq;
    MainMemory mem(eq, "mem", 16 * PAGE_SIZE);
    EXPECT_EQ(mem.residentPages(), 0u);
    EXPECT_EQ(mem.readInt(0, 1), 0u);
    EXPECT_EQ(mem.readInt(mem.size() - 1, 1), 0u);
    EXPECT_EQ(mem.busRead(PAGE_SIZE - 4, 8), 0u);   // straddles a page

    std::vector<std::uint8_t> all(mem.size(), 0xff);
    mem.read(0, all.data(), all.size());
    EXPECT_EQ(std::count(all.begin(), all.end(), 0),
              static_cast<std::ptrdiff_t>(mem.size()));
    EXPECT_EQ(mem.residentPages(), 0u);     // reads never allocate
}

TEST(SparseMemory, WritesAllocateOnlyTheirPages)
{
    EventQueue eq;
    MainMemory mem(eq, "mem", 16 * PAGE_SIZE);
    mem.writeInt(3 * PAGE_SIZE + 17, 0xab, 1);
    EXPECT_EQ(mem.residentPages(), 1u);
    mem.writeInt(3 * PAGE_SIZE + 100, 0xcd, 1);     // same page
    EXPECT_EQ(mem.residentPages(), 1u);

    // Straddles pages 6 and 7: both are allocated.
    mem.writeInt(7 * PAGE_SIZE - 2, 0x11223344, 4);
    EXPECT_EQ(mem.residentPages(), 3u);
    EXPECT_EQ(mem.readInt(7 * PAGE_SIZE - 2, 4), 0x11223344u);
    EXPECT_EQ(mem.readInt(7 * PAGE_SIZE, 2), 0x1122u);
    // The rest of a freshly allocated page still reads zero.
    EXPECT_EQ(mem.readInt(6 * PAGE_SIZE, 8), 0u);
    EXPECT_EQ(mem.readInt(8 * PAGE_SIZE - 8, 8), 0u);
    EXPECT_EQ(mem.readInt(3 * PAGE_SIZE + 17, 1), 0xabu);
}

TEST(SparseMemory, RandomAccessesMatchFlatReference)
{
    constexpr Addr pages = 32;
    constexpr Addr max_len = 2 * PAGE_SIZE + 1;
    EventQueue eq;
    MainMemory mem(eq, "mem", pages * PAGE_SIZE);
    std::vector<std::uint8_t> ref(mem.size(), 0);
    std::vector<bool> written(pages, false);
    Rng rng(0x5ba45e);

    auto pick_len = [&rng]() -> Addr {
        switch (rng.below(4)) {
          case 0: return rng.inRange(1, 16);
          case 1: return rng.inRange(1, PAGE_SIZE);
          case 2: return rng.inRange(PAGE_SIZE, max_len);
          default: return rng.chance(0.5) ? 1 : max_len;
        }
    };
    // Mostly put a page boundary strictly inside the access.
    auto pick_addr = [&rng, &mem](Addr len) -> Addr {
        Addr last = mem.size() - len;
        if (len < 2 || rng.chance(0.25))
            return rng.inRange(0, last);
        Addr boundary = rng.inRange(1, pages - 1) * PAGE_SIZE;
        Addr before = rng.inRange(1, std::min(len - 1, boundary));
        return std::min(boundary - before, last);
    };
    auto mark_written = [&written](Addr addr, Addr len) {
        for (Addr p = pageOf(addr); p <= pageOf(addr + len - 1); ++p)
            written[p] = true;
    };

    std::vector<std::uint8_t> buf;
    for (int op = 0; op < 3000; ++op) {
        switch (rng.below(4)) {
          case 0: {     // write
            Addr len = pick_len();
            Addr addr = pick_addr(len);
            buf.resize(len);
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng.next());
            mem.write(addr, buf.data(), len);
            std::copy(buf.begin(), buf.end(), ref.begin() + addr);
            mark_written(addr, len);
            break;
          }
          case 1: {     // read
            Addr len = pick_len();
            Addr addr = pick_addr(len);
            buf.assign(len, 0xa5);
            mem.read(addr, buf.data(), len);
            ASSERT_TRUE(std::equal(buf.begin(), buf.end(),
                                   ref.begin() + addr))
                << "op " << op << " read addr=" << addr << " len=" << len;
            break;
          }
          case 2: {     // writeInt
            unsigned size = 1u << rng.below(4);
            Addr addr = pick_addr(size);
            std::uint64_t v = rng.next();
            mem.writeInt(addr, v, size);
            for (unsigned i = 0; i < size; ++i)
                ref[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
            mark_written(addr, size);
            break;
          }
          default: {    // readInt
            unsigned size = 1u << rng.below(4);
            Addr addr = pick_addr(size);
            std::uint64_t want = 0;
            for (unsigned i = 0; i < size; ++i)
                want |= std::uint64_t{ref[addr + i]} << (8 * i);
            ASSERT_EQ(mem.readInt(addr, size), want)
                << "op " << op << " readInt addr=" << addr;
            break;
          }
        }
    }

    std::vector<std::uint8_t> all(mem.size());
    mem.read(0, all.data(), all.size());
    EXPECT_TRUE(all == ref);
    EXPECT_EQ(mem.residentPages(),
              static_cast<std::size_t>(
                  std::count(written.begin(), written.end(), true)));
}

TEST(SparseMemory, BootWritesNoDramPage)
{
    SystemConfig mesh;
    mesh.meshWidth = 8;
    mesh.meshHeight = 8;
    SystemConfig dsm = SystemConfig::paper16();
    dsm.dsm.enabled = true;
    for (const SystemConfig &cfg : {mesh, dsm}) {
        ShrimpSystem sys(cfg);
        for (NodeId n = 0; n < sys.numNodes(); ++n)
            EXPECT_EQ(sys.node(n).mem.residentPages(), 0u) << "node " << n;
    }
}

TEST(SparseMemory, DeliberateSendOfUnwrittenPageDeliversZeros)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                                      UpdateMode::DELIBERATE),
              err::OK);
    Addr cmd = sys.kernel(0).mapCommandPages(*a, src, 1);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(src);
    // Stale receiver contents, so the zeros must actually arrive.
    for (Addr off = 0; off < PAGE_SIZE; off += 4)
        test::poke32(sys, 1, *b, dst + off, 0xdeadbeef);

    // Send the whole never-written source page and wait for the DMA.
    Program pa("a");
    pa.movi(R3, src);
    pa.movi(R1, PAGE_SIZE);
    msg::emitDeliberateSendSingle(pa, cmd_delta, "send", "multi");
    pa.label("wait");
    msg::emitDeliberateCheck(pa);
    pa.jnz("wait");
    pa.halt();
    pa.label("multi");
    pa.halt();
    test::loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    test::loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);

    EXPECT_EQ(sys.snapshot().at("node0.ni.dma.bytes"), PAGE_SIZE);
    unsigned nonzero = 0;
    for (Addr off = 0; off < PAGE_SIZE; off += 4)
        nonzero += test::peek32(sys, 1, *b, dst + off) != 0;
    EXPECT_EQ(nonzero, 0u);
    EXPECT_EQ(sys.node(0).mem.residentPages(), 0u);
}

TEST(EisaBus, BurstTimingMatchesBandwidth)
{
    EventQueue eq;
    EisaBus eisa(eq, "eisa");
    // 33 MB/s, 900 ns setup.
    auto g = eisa.acquire(0, 33);
    EXPECT_EQ(g.start, 0u);
    EXPECT_EQ(g.end, 900 * ONE_NS + ONE_US);    // 33 B @ 33 MB/s = 1 us
    auto g2 = eisa.acquire(0, 33);
    EXPECT_EQ(g2.start, g.end);
    EXPECT_EQ(test::snapshotOf(eisa.statGroup()).at("eisa.bytes"), 66u);
}

TEST(EisaBus, LongBurstApproachesPeakBandwidth)
{
    EventQueue eq;
    EisaBus eisa(eq, "eisa");
    Addr bytes = 1 * 1024 * 1024;
    auto g = eisa.acquire(0, bytes);
    double secs = static_cast<double>(g.end - g.start) / ONE_SEC;
    double mbps = bytes / secs / 1e6;
    EXPECT_GT(mbps, 32.5);
    EXPECT_LE(mbps, 33.01);
}

struct CacheFixture : ::testing::Test
{
    EventQueue eq;
    MainMemory mem{eq, "mem", 1 * 1024 * 1024};
    XpressBus bus{eq, "bus"};
    Cache cache{eq, "cache", 60'000'000, bus, mem};

    void
    SetUp() override
    {
        bus.addTarget(0, mem.size(), &mem);
    }
};

TEST_F(CacheFixture, LoadMissThenHit)
{
    Tick t1 = cache.load(0x3000, 4, CachePolicy::WRITE_BACK, 0);
    EXPECT_EQ(test::snapshotOf(cache.statGroup()).at("cache.misses"), 1u);
    EXPECT_TRUE(cache.isCached(0x3000));
    // Miss latency includes a bus line fill plus DRAM access.
    EXPECT_GT(t1, 60 * ONE_NS);

    Tick t2 = cache.load(0x3000, 4, CachePolicy::WRITE_BACK,
                         10 * ONE_US);
    EXPECT_EQ(test::snapshotOf(cache.statGroup()).at("cache.hits"), 1u);
    EXPECT_EQ(t2, 10 * ONE_US + cache.clockPeriod());
}

TEST_F(CacheFixture, WriteBackStoreStaysOffBus)
{
    std::uint32_t v = 7;
    cache.store(0x4000, &v, 4, CachePolicy::WRITE_BACK, 0);
    EXPECT_TRUE(cache.isDirty(0x4000));
    EXPECT_EQ(mem.readInt(0x4000, 4), 7u);  // functional data current
    std::uint64_t line_fill_bytes =
        test::snapshotOf(bus.statGroup()).at("bus.bytes");

    // Another store to the same line: no additional bus traffic.
    v = 9;
    cache.store(0x4004, &v, 4, CachePolicy::WRITE_BACK, ONE_US);
    EXPECT_EQ(test::snapshotOf(bus.statGroup()).at("bus.bytes"),
              line_fill_bytes);
}

TEST_F(CacheFixture, WriteThroughStoreGoesToBus)
{
    SnoopRecorder snoop;
    snoop.eq = &eq;
    bus.addSnooper(&snoop);

    std::uint32_t v = 0xabcd;
    cache.store(0x5000, &v, 4, CachePolicy::WRITE_THROUGH, 0);
    eq.run();
    ASSERT_EQ(snoop.recs.size(), 1u);
    EXPECT_EQ(snoop.recs[0].paddr, 0x5000u);
    EXPECT_FALSE(cache.isDirty(0x5000));
}

TEST_F(CacheFixture, WriteBufferAbsorbsThenStalls)
{
    // Post more stores than write-buffer entries at the same tick;
    // the first four proceed immediately, the fifth stalls.
    std::uint32_t v = 1;
    Tick t = 0;
    std::vector<Tick> proceed;
    for (int i = 0; i < 6; ++i) {
        proceed.push_back(cache.store(0x6000 + 4 * i, &v, 4,
                                      CachePolicy::WRITE_THROUGH, t));
    }
    // First 4 complete at t + hit latency (posted).
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(proceed[i], cache.clockPeriod());
    // Later ones are pushed out by bus drain time.
    EXPECT_GT(proceed[5], proceed[0]);
}

TEST_F(CacheFixture, SnoopInvalidatesOnDmaWrite)
{
    cache.load(0x7000, 4, CachePolicy::WRITE_BACK, 0);
    cache.load(0x7020, 4, CachePolicy::WRITE_BACK, ONE_US);
    EXPECT_TRUE(cache.isCached(0x7000));
    EXPECT_TRUE(cache.isCached(0x7020));

    std::uint8_t buf[64] = {};
    bus.functionalWrite(0x7000, buf, 64, BusMaster::EISA_DMA);
    EXPECT_FALSE(cache.isCached(0x7000));
    EXPECT_FALSE(cache.isCached(0x7020));
    // 64 B = 2 lines.
    EXPECT_EQ(test::snapshotOf(cache.statGroup())
                  .at("cache.snoopInvalidations"),
              2u);
}

TEST_F(CacheFixture, CpuTrafficDoesNotSelfInvalidate)
{
    cache.load(0x8000, 4, CachePolicy::WRITE_BACK, 0);
    std::uint32_t v = 5;
    bus.postWrite(0x8000, &v, 4, BusMaster::CPU, 0);
    eq.run();
    EXPECT_TRUE(cache.isCached(0x8000));
}

TEST_F(CacheFixture, UncacheableLoadBypassesCache)
{
    Tick t = cache.load(0x9000, 4, CachePolicy::UNCACHEABLE, 0);
    EXPECT_FALSE(cache.isCached(0x9000));
    stats::Snapshot snap = test::snapshotOf(cache.statGroup());
    EXPECT_EQ(snap.at("cache.hits") + snap.at("cache.misses"), 0u);
    EXPECT_GE(t, 60 * ONE_NS);  // paid DRAM latency
}

TEST_F(CacheFixture, LockedAccessDrainsWriteBuffer)
{
    std::uint32_t v = 1;
    for (int i = 0; i < 4; ++i)
        cache.store(0xa000 + 4 * i, &v, 4, CachePolicy::WRITE_THROUGH,
                    0);
    auto grant = cache.lockedAccess(0xb000, 4, 0);
    // The locked op starts only after all posted writes hit the bus.
    EXPECT_GE(grant.start, cache.drainedAt(0));
}

TEST_F(CacheFixture, DirtyVictimWritesBack)
{
    // Same index, different tags: addresses one cache-size apart.
    std::uint32_t v = 3;
    cache.store(0x1000, &v, 4, CachePolicy::WRITE_BACK, 0);
    EXPECT_TRUE(cache.isDirty(0x1000));
    std::uint64_t before =
        test::snapshotOf(bus.statGroup()).at("bus.bytes");
    cache.load(0x1000 + Cache::sizeBytes, 4, CachePolicy::WRITE_BACK,
               ONE_US);
    // Writeback + fill both appeared on the bus.
    EXPECT_GE(test::snapshotOf(bus.statGroup()).at("bus.bytes"),
              before + 2 * Cache::lineBytes);
    EXPECT_FALSE(cache.isDirty(0x1000));
}

} // namespace
} // namespace shrimp
