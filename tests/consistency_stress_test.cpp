/**
 * @file
 * Stress tests for the Section 4.4 consistency machinery: pages are
 * evicted (with remote NIPT shootdowns) and paged back in while
 * automatic-update traffic is in flight, repeatedly. The invariants:
 * no delivered data is ever lost (eviction saves page contents and
 * the in-order ack protocol guarantees in-flight packets land before
 * the frame is freed), and every store the writer issues is
 * eventually reflected at the destination (faults on invalidated
 * mappings trigger remap and retry).
 */

#include <gtest/gtest.h>

#include <map>

#include "os/map_manager.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;

TEST(ConsistencyStress, PagingStormUnderLiveTraffic)
{
    constexpr unsigned kPages = 4;
    constexpr unsigned kStores = 64;

    SystemConfig cfg = test::twoNodeConfig();
    ShrimpSystem sys(cfg);
    sys.kernel(1).setConsistencyPolicy(ConsistencyPolicy::INVALIDATE);

    Process *a = sys.kernel(0).createProcess("writer");
    Process *b = sys.kernel(1).createProcess("reader");
    Addr src = a->allocate(kPages);
    Addr dst = b->allocate(kPages);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, kPages, sys.kernel(1),
                                      *b, dst,
                                      UpdateMode::AUTO_SINGLE),
              err::OK);

    // Deterministic store schedule touching all pages; remember the
    // last value written to each offset.
    std::map<Addr, std::uint32_t> expected;
    Program pa("writer");
    for (std::uint32_t v = 1; v <= kStores; ++v) {
        Addr off = (v * 260) % (kPages * PAGE_SIZE);
        off &= ~Addr{3};
        expected[off] = v;
        // ~20 us of compute between stores.
        pa.movi(R2, 0);
        pa.label("d" + std::to_string(v));
        pa.addi(R2, 1);
        pa.cmpi(R2, 400);
        pa.jl("d" + std::to_string(v));
        pa.movi(R1, src + off);
        pa.sti(R1, 0, v, 4);
    }
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("reader");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    // Paging storm: evict destination pages round-robin every 120 us
    // while the writer runs (~1.4 ms), plus one eviction of a source
    // page (outgoing-only paging).
    unsigned evictions_requested = 0;
    for (int i = 0; i < 10; ++i) {
        Addr victim = dst + (i % kPages) * PAGE_SIZE;
        sys.eventQueue().scheduleFn(
            [&sys, b, victim] {
                sys.kernel(1).evictUserPage(*b, victim, [](bool) {});
            },
            100 * ONE_US + i * 120 * ONE_US);
        ++evictions_requested;
    }
    sys.eventQueue().scheduleFn(
        [&sys, a, src] {
            sys.kernel(0).evictUserPage(*a, src + PAGE_SIZE,
                                        [](bool) {});
        },
        450 * ONE_US);

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited(30 * ONE_SEC));
    sys.runFor(20 * ONE_MS);

    // The machinery really fired: shootdowns reached the writer and
    // at least one store faulted into a remap.
    stats::Snapshot snap = sys.snapshot();
    EXPECT_GT(snap.at("node0.kernel.map.invalidationsReceived"), 0u);
    EXPECT_GT(snap.at("node0.kernel.map.remapsCompleted"), 0u);

    // Every offset holds the last value written to it. Pages may
    // currently be in swap on the destination; page them in first.
    for (unsigned p = 0; p < kPages; ++p) {
        PageNum vpage = pageOf(dst) + p;
        if (sys.kernel(1).inSwap(b->pid(), vpage)) {
            ASSERT_EQ(sys.kernel(1).pageIn(*b, vpage), err::OK);
        }
    }
    for (const auto &[off, value] : expected) {
        EXPECT_EQ(peek32(sys, 1, *b, dst + off), value)
            << "offset " << off;
    }
}

TEST(ConsistencyStress, RepeatedEvictRemapCycles)
{
    // One page, many forced evict -> fault -> remap -> store cycles.
    SystemConfig cfg = test::twoNodeConfig();
    ShrimpSystem sys(cfg);
    sys.kernel(1).setConsistencyPolicy(ConsistencyPolicy::INVALIDATE);

    Process *a = sys.kernel(0).createProcess("writer");
    Process *b = sys.kernel(1).createProcess("reader");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);

    constexpr int kCycles = 6;
    Program pa("writer");
    for (int i = 1; i <= kCycles; ++i) {
        pa.movi(R2, 0);
        pa.label("d" + std::to_string(i));
        pa.addi(R2, 1);
        pa.cmpi(R2, 2000);      // ~100 us between stores
        pa.jl("d" + std::to_string(i));
        pa.movi(R1, src);
        pa.sti(R1, 4 * i, i, 4);
    }
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("reader");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    // Evict between every pair of stores.
    for (int i = 0; i < kCycles; ++i) {
        sys.eventQueue().scheduleFn(
            [&sys, b, dst] {
                sys.kernel(1).evictUserPage(*b, dst, [](bool) {});
            },
            50 * ONE_US + i * 100 * ONE_US);
    }

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited(30 * ONE_SEC));
    sys.runFor(20 * ONE_MS);

    EXPECT_GE(sys.snapshot().at("node0.kernel.map.remapsCompleted"), 3u);

    if (sys.kernel(1).inSwap(b->pid(), pageOf(dst))) {
        ASSERT_EQ(sys.kernel(1).pageIn(*b, pageOf(dst)), err::OK);
    }
    for (int i = 1; i <= kCycles; ++i)
        EXPECT_EQ(peek32(sys, 1, *b, dst + 4 * i),
                  static_cast<std::uint32_t>(i))
            << "cycle " << i;
}

} // namespace
} // namespace shrimp
