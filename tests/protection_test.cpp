/**
 * @file
 * Protection tests for the paper's central claim: user-level
 * communication without sacrificing protection under general
 * multiprogramming (Sections 1-3, Figure 3).
 *
 *  - Two processes coexist with independent mappings; a context
 *    switch between them requires no network-interface action,
 *    because the NIPT is keyed by *physical* pages and the processes'
 *    physical pages are disjoint.
 *  - A process cannot trigger another process's mappings: writes to
 *    its own (unmapped) memory produce no packets, and it has no
 *    translation for the other process's pages at all.
 *  - Command pages only control the pages the kernel granted.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;

TEST(Protection, TwoProcessesCoexistAndSwitchWithoutNiAction)
{
    // Figure 3: the gray and black mappings belong to different
    // processes on the same pair of nodes; context switches between
    // them require no NIPT changes.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.kernel.quantum = 30 * ONE_US;   // frequent switches
    ShrimpSystem sys(cfg);

    struct Side
    {
        Process *snd;
        Process *rcv;
        Addr src, dst;
    };
    Side gray, black;
    for (Side *side : {&gray, &black}) {
        side->snd = sys.kernel(0).createProcess("snd");
        side->rcv = sys.kernel(1).createProcess("rcv");
        side->src = side->snd->allocate(1);
        side->dst = side->rcv->allocate(1);
        ASSERT_EQ(sys.kernel(0).mapDirect(*side->snd, side->src, 1,
                                          sys.kernel(1), *side->rcv,
                                          side->dst,
                                          UpdateMode::AUTO_SINGLE),
                  err::OK);
    }

    // Snapshot the NIPT; it must be bit-identical after the run.
    auto nipt_fingerprint = [&](NodeId n) {
        std::uint64_t h = 1469598103934665603ull;
        const Nipt &nipt = sys.node(n).ni.nipt();
        for (PageNum p = 0; p < nipt.numPages(); ++p) {
            const NiptEntry &e = nipt.entry(p);
            auto mix = [&h](std::uint64_t v) {
                h = (h ^ v) * 1099511628211ull;
            };
            mix(static_cast<std::uint64_t>(e.outLow.mode));
            mix(e.outLow.dstPage);
            mix(static_cast<std::uint64_t>(e.outHigh.mode));
            mix(e.outHigh.dstPage);
            mix(e.splitOffset);
            mix(e.mappedIn);
        }
        return h;
    };
    std::uint64_t fp0 = nipt_fingerprint(0);
    std::uint64_t fp1 = nipt_fingerprint(1);

    // Both senders interleave 20 writes each under preemption, with
    // enough compute between writes that several quanta expire.
    int tag = 0;
    for (Side *side : {&gray, &black}) {
        Program p("snd");
        p.movi(R1, side->src);
        p.movi(R2, 0);
        p.movi(R3, 20);
        p.label("loop");
        p.st(R1, 0, R2, 4);
        p.addi(R1, 4);
        p.addi(R2, 1);
        p.movi(R4, 0);          // ~1200-instruction compute phase
        p.label("work");
        p.addi(R4, 1);
        p.cmpi(R4, 400);
        p.jl("work");
        p.cmp(R2, R3);
        p.jl("loop");
        p.halt();
        loadProgram(sys.kernel(0), *side->snd, std::move(p));
        Program pr("rcv");
        pr.halt();
        loadProgram(sys.kernel(1), *side->rcv, std::move(pr));
        ++tag;
    }

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(5 * ONE_MS);

    // Each side's data landed in ITS receiver only.
    for (Side *side : {&gray, &black}) {
        for (int i = 0; i < 20; ++i) {
            EXPECT_EQ(peek32(sys, 1, *side->rcv, side->dst + 4 * i),
                      static_cast<std::uint32_t>(i));
        }
    }
    // Context switches happened, the NIPT never changed.
    EXPECT_GT(sys.snapshot().at("node0.kernel.contextSwitches"), 2u);
    EXPECT_EQ(nipt_fingerprint(0), fp0);
    EXPECT_EQ(nipt_fingerprint(1), fp1);
}

TEST(Protection, UnmappedProcessMemoryProducesNoPackets)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *mapped = sys.kernel(0).createProcess("mapped");
    Process *other = sys.kernel(0).createProcess("other");
    Process *rcv = sys.kernel(1).createProcess("rcv");
    Addr src = mapped->allocate(1);
    Addr dst = rcv->allocate(1);
    sys.kernel(0).mapDirect(*mapped, src, 1, sys.kernel(1), *rcv, dst,
                            UpdateMode::AUTO_SINGLE);

    // `other` writes furiously to its own memory: zero packets.
    Addr mine = other->allocate(2);
    Program po("other");
    po.movi(R1, mine);
    for (int i = 0; i < 64; ++i)
        po.sti(R1, 4 * i, 0xBAD, 4);
    po.halt();
    loadProgram(sys.kernel(0), *other, std::move(po));

    Program pm("mapped");
    pm.halt();      // the mapped process doesn't even run its send
    loadProgram(sys.kernel(0), *mapped, std::move(pm));
    Program pr("rcv");
    pr.halt();
    loadProgram(sys.kernel(1), *rcv, std::move(pr));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);

    EXPECT_EQ(sys.snapshot().at("node0.ni.pktsSent"), 0u);
    EXPECT_EQ(peek32(sys, 1, *rcv, dst), 0u);
}

TEST(Protection, ProcessCannotReachForeignVirtualMemory)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *victim = sys.kernel(0).createProcess("victim");
    Process *attacker = sys.kernel(0).createProcess("attacker");
    // Push the secret past any region the attacker's own space maps
    // (its stack occupies the first few user pages).
    victim->allocate(8);
    Addr secret = victim->allocate(1);
    test::poke32(sys, 0, *victim, secret, 0x5EC2E7);

    // The attacker has no translation for ANY address it did not
    // allocate; same virtual address, different (or no) frame.
    Program pa("attacker");
    pa.movi(R1, secret);    // same numeric vaddr as the victim's page
    pa.ld(R2, R1, 0, 4);    // faults: not mapped in attacker's space
    pa.halt();
    loadProgram(sys.kernel(0), *attacker, std::move(pa));
    Program pv("victim");
    pv.halt();
    loadProgram(sys.kernel(0), *victim, std::move(pv));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    // The attacker was killed by the fault, the victim unharmed.
    EXPECT_EQ(attacker->ctx.faults, 1u);
    EXPECT_EQ(peek32(sys, 0, *victim, secret), 0x5EC2E7u);
}

TEST(Protection, MapRequiresWritableUserPagesOnBothSides)
{
    // The protection check of the map() call: read-only source or
    // destination pages are refused (err::PERM), so a process cannot
    // export or import memory it cannot write.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr ro_src = a->allocate(1, CachePolicy::WRITE_BACK, false);
    Addr rw_src = a->allocate(1);
    Addr ro_dst = b->allocate(1, CachePolicy::WRITE_BACK, false);
    Addr rw_dst = b->allocate(1);

    EXPECT_EQ(sys.kernel(0).mapDirect(*a, ro_src, 1, sys.kernel(1),
                                      *b, rw_dst,
                                      UpdateMode::AUTO_SINGLE),
              err::PERM);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, rw_src, 1, sys.kernel(1),
                                      *b, ro_dst,
                                      UpdateMode::AUTO_SINGLE),
              err::PERM);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, rw_src, 1, sys.kernel(1),
                                      *b, rw_dst,
                                      UpdateMode::AUTO_SINGLE),
              err::OK);
}

} // namespace
} // namespace shrimp
