/**
 * @file
 * Tests for NIPT consistency (paper Section 4.4): the PIN policy, the
 * INVALIDATE shootdown protocol, fault-driven remapping, and paging
 * of pages with outgoing mappings.
 */

#include <gtest/gtest.h>

#include "os/map_manager.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

struct ConsistencyFixture : ::testing::Test
{
    std::unique_ptr<ShrimpSystem> sys;
    Process *procA = nullptr;
    Process *procB = nullptr;

    void
    build(ConsistencyPolicy policy_b)
    {
        sys = std::make_unique<ShrimpSystem>(test::twoNodeConfig());
        sys->kernel(1).setConsistencyPolicy(policy_b);
        procA = sys->kernel(0).createProcess("A");
        procB = sys->kernel(1).createProcess("B");
    }
};

TEST_F(ConsistencyFixture, PinPolicyRefusesEvictingMappedInPage)
{
    build(ConsistencyPolicy::PIN);
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    bool called = false, ok = true;
    sys->kernel(1).evictUserPage(*procB, dst, [&](bool success) {
        called = true;
        ok = success;
    });
    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);   // pinned: the simple policy forbids paging
}

TEST_F(ConsistencyFixture, UnmappedPageEvictsAndPagesBackIn)
{
    build(ConsistencyPolicy::PIN);
    Addr buf = procB->allocate(1);
    poke32(*sys, 1, *procB, buf + 0x40, 0xbeef);

    bool ok = false;
    sys->kernel(1).evictUserPage(*procB, buf,
                                 [&](bool success) { ok = success; });
    EXPECT_TRUE(ok);
    EXPECT_TRUE(sys->kernel(1).inSwap(procB->pid(),
                                      pageOf(buf)));
    EXPECT_FALSE(procB->space().translate(buf, false).ok());

    // Access from a program page-faults it back in.
    Program pb("b");
    pb.movi(R1, buf);
    pb.ld(R2, R1, 0x40, 4);
    pb.st(R1, 0x44, R2, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));
    Program pa("a");
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    EXPECT_EQ(peek32(*sys, 1, *procB, buf + 0x44), 0xbeefu);
    EXPECT_FALSE(sys->kernel(1).inSwap(procB->pid(), pageOf(buf)));
}

TEST_F(ConsistencyFixture, OutgoingOnlyPageSurvivesPaging)
{
    // Pages with only outgoing mappings can be replaced freely as
    // long as the mapping information is kept (Section 4.4); after
    // page-in the NIPT entry is reinstalled at the new frame.
    build(ConsistencyPolicy::PIN);
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1), *procB,
                             dst, UpdateMode::AUTO_SINGLE);

    bool ok = false;
    sys->kernel(0).evictUserPage(*procA, src,
                                 [&](bool success) { ok = success; });
    ASSERT_TRUE(ok);

    // Store to the paged-out source: fault, page-in, NIPT
    // reinstalled, data propagates.
    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0x20, 0x51515151, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);

    EXPECT_EQ(sys->kernel(0).statGroup().name(), "node0.kernel");
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0x20), 0x51515151u);
}

TEST_F(ConsistencyFixture, InvalidateShootdownAndFaultDrivenRemap)
{
    build(ConsistencyPolicy::INVALIDATE);
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    ASSERT_EQ(sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1),
                                       *procB, dst,
                                       UpdateMode::AUTO_SINGLE),
              err::OK);

    // Sender: first store, long delay, second store.
    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0x1111, 4);
    pa.movi(R2, 0);
    pa.movi(R3, 20'000);
    pa.label("delay");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("delay");
    pa.movi(R1, src);
    pa.sti(R1, 4, 0x2222, 4);   // faults: mapping was invalidated
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    // Mid-delay, node 1 pages the destination out. Under the
    // INVALIDATE policy this shoots down node 0's NIPT entry first.
    bool evicted = false;
    sys->eventQueue().scheduleFn(
        [&] {
            sys->kernel(1).evictUserPage(
                *procB, dst, [&](bool success) { evicted = success; });
        },
        100 * ONE_US);

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(5 * ONE_MS);

    EXPECT_TRUE(evicted);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.kernel.map.invalidationsReceived"), 1u);
    EXPECT_EQ(snap.at("node0.kernel.map.remapsCompleted"), 1u);
    EXPECT_EQ(procA->ctx.faults, 1u);

    // The destination page came back (REMAP forced a page-in) with
    // both the pre-eviction and post-remap data.
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 0), 0x1111u);
    EXPECT_EQ(peek32(*sys, 1, *procB, dst + 4), 0x2222u);
}

TEST_F(ConsistencyFixture, RemapSurvivesAnEarlierRecordsRemoval)
{
    // A remap must find its mapping records afresh after each round
    // trip: reaping another process while the MAP_PAGE is in flight
    // shifts the record list, and a remap that remembered positions
    // repaired a destroyed slot, leaving A's record invalidated.
    build(ConsistencyPolicy::INVALIDATE);
    Process *early = sys->kernel(0).createProcess("early");
    Addr early_src = early->allocate(1);
    Addr early_dst = procB->allocate(1);
    Addr src = procA->allocate(1);
    Addr dst = procB->allocate(1);
    ASSERT_EQ(sys->kernel(0).mapDirect(*early, early_src, 1,
                                       sys->kernel(1), *procB, early_dst,
                                       UpdateMode::AUTO_SINGLE),
              err::OK);
    ASSERT_EQ(sys->kernel(0).mapDirect(*procA, src, 1, sys->kernel(1),
                                       *procB, dst,
                                       UpdateMode::AUTO_SINGLE),
              err::OK);
    MapManager &mm = sys->kernel(0).mapManager();
    ASSERT_EQ(mm.outRecords().size(), 2u);
    ASSERT_EQ(mm.outRecords()[1].pid, procA->pid());

    // Paging out A's destination shoots down A's record only.
    bool evicted = false;
    sys->kernel(1).evictUserPage(
        *procB, dst, [&](bool success) { evicted = success; });
    sys->runFor(ONE_MS);
    ASSERT_TRUE(evicted);
    ASSERT_TRUE(mm.needsRemap(procA->pid(), pageOf(src)));
    ASSERT_FALSE(mm.needsRemap(early->pid(), pageOf(early_src)));

    // Remap A, and reap `early` before the response arrives.
    std::uint64_t code = err::INVAL;
    bool done = false;
    mm.startRemap(*procA, pageOf(src), [&](std::uint64_t e) {
        done = true;
        code = e;
    });
    sys->kernel(0).reapProcess(*early);
    ASSERT_FALSE(done);
    sys->runFor(ONE_MS);

    ASSERT_TRUE(done);
    EXPECT_EQ(code, err::OK);
    ASSERT_EQ(mm.outRecords().size(), 1u);
    EXPECT_EQ(mm.outRecords()[0].pid, procA->pid());
    EXPECT_FALSE(mm.outRecords()[0].invalidated);
    EXPECT_FALSE(mm.needsRemap(procA->pid(), pageOf(src)));
    EXPECT_TRUE(procA->space().translate(src, true).ok());
}

TEST_F(ConsistencyFixture, ShootdownReachesMultipleSources)
{
    // Two different nodes map into the same destination page; the
    // eviction must invalidate both sources before proceeding.
    SystemConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 1;
    sys = std::make_unique<ShrimpSystem>(cfg);
    sys->kernel(2).setConsistencyPolicy(ConsistencyPolicy::INVALIDATE);

    Process *a = sys->kernel(0).createProcess("a");
    Process *b = sys->kernel(1).createProcess("b");
    Process *c = sys->kernel(2).createProcess("c");
    Addr src_a = a->allocate(1);
    Addr src_b = b->allocate(1);
    Addr dst = c->allocate(1);

    sys->kernel(0).mapDirect(*a, src_a, 1, sys->kernel(2), *c, dst,
                             UpdateMode::AUTO_SINGLE);
    sys->kernel(1).mapDirect(*b, src_b, 1, sys->kernel(2), *c, dst,
                             UpdateMode::AUTO_SINGLE);

    for (Process *p : {a, b}) {
        Program prog(p->name());
        prog.halt();
        loadProgram(p == a ? sys->kernel(0) : sys->kernel(1), *p,
                    std::move(prog));
    }
    Program pc("c");
    pc.halt();
    loadProgram(sys->kernel(2), *c, std::move(pc));

    bool evicted = false;
    sys->eventQueue().scheduleFn(
        [&] {
            sys->kernel(2).evictUserPage(
                *c, dst, [&](bool success) { evicted = success; });
        },
        10 * ONE_US);

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(5 * ONE_MS);

    EXPECT_TRUE(evicted);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.kernel.map.invalidationsReceived"), 1u);
    EXPECT_EQ(snap.at("node1.kernel.map.invalidationsReceived"), 1u);
    // Both source pages are now read-only.
    EXPECT_EQ(a->space().translate(src_a, true).fault,
              FaultKind::PROTECTION);
    EXPECT_EQ(b->space().translate(src_b, true).fault,
              FaultKind::PROTECTION);
}

TEST_F(ConsistencyFixture, SwapPreservesWholePageContents)
{
    build(ConsistencyPolicy::PIN);
    Addr buf = procB->allocate(1);
    for (Addr off = 0; off < PAGE_SIZE; off += 4)
        poke32(*sys, 1, *procB, buf + off,
               static_cast<std::uint32_t>(off ^ 0x5a5a));

    bool ok = false;
    sys->kernel(1).evictUserPage(*procB, buf,
                                 [&](bool success) { ok = success; });
    ASSERT_TRUE(ok);
    ASSERT_EQ(sys->kernel(1).pageIn(*procB, pageOf(buf)), err::OK);

    for (Addr off = 0; off < PAGE_SIZE; off += 4) {
        ASSERT_EQ(peek32(*sys, 1, *procB, buf + off),
                  static_cast<std::uint32_t>(off ^ 0x5a5a))
            << "offset " << off;
    }
}

} // namespace
} // namespace shrimp
