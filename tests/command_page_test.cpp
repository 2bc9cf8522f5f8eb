/**
 * @file
 * Tests for Virtual Memory Mapped Commands (paper Section 4.2): the
 * kernel maps command pages into a process's address space, and the
 * process then controls the network interface for its own pages
 * entirely from user level -- the paper's two examples are switching
 * a page between single-write and blocked-write automatic update and
 * requesting an interrupt on data arrival.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;

struct CommandPageFixture : ::testing::Test
{
    std::unique_ptr<ShrimpSystem> sys;
    Process *procA = nullptr;
    Process *procB = nullptr;
    Addr src = 0, dst = 0, cmd = 0;

    void
    build(UpdateMode mode, bool arrival_interrupt = false)
    {
        sys = std::make_unique<ShrimpSystem>(test::twoNodeConfig());
        procA = sys->kernel(0).createProcess("A");
        procB = sys->kernel(1).createProcess("B");
        src = procA->allocate(1);
        dst = procB->allocate(1);
        ASSERT_EQ(sys->kernel(0).mapDirect(*procA, src, 1,
                                           sys->kernel(1), *procB, dst,
                                           mode, arrival_interrupt),
                  err::OK);
        cmd = sys->kernel(0).mapCommandPages(*procA, src, 1);
    }
};

TEST_F(CommandPageFixture, UserSwitchesSingleToBlockedWrite)
{
    build(UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, cmd);
    // Phase 1: single-write -- every store is a packet.
    for (int i = 0; i < 4; ++i)
        pa.sti(R1, 4 * i, 0x10 + i, 4);
    // Switch this page to blocked-write from user level: one store
    // to the command page's mode-control word.
    pa.sti(R2, ShrimpNi::ctrlModeOffset,
           static_cast<std::int64_t>(ShrimpNi::ModeCommand::AUTO_BLOCK),
           4);
    // Phase 2: blocked-write -- consecutive stores merge.
    for (int i = 4; i < 8; ++i)
        pa.sti(R1, 4 * i, 0x10 + i, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(5 * ONE_MS);

    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(peek32(*sys, 1, *procB, dst + 4 * i),
                  static_cast<std::uint32_t>(0x10 + i));
    // 4 single-write packets + 1 merged packet.
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.pktsSent"), 5u);
    EXPECT_GE(snap.at("node0.ni.mergedWrites"), 3u);
}

TEST_F(CommandPageFixture, UserSwitchesBlockedToSingleWrite)
{
    build(UpdateMode::AUTO_BLOCK);

    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, cmd);
    pa.sti(R2, ShrimpNi::ctrlModeOffset,
           static_cast<std::int64_t>(
               ShrimpNi::ModeCommand::AUTO_SINGLE),
           4);
    for (int i = 0; i < 4; ++i)
        pa.sti(R1, 4 * i, 7 + i, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.pktsSent"), 4u);   // no merging
    EXPECT_EQ(snap.at("node0.ni.mergedWrites"), 0u);
}

TEST_F(CommandPageFixture, UserRequestsArrivalInterrupt)
{
    // The receiver-side process asks for an interrupt the next time
    // data arrives for one of its pages, through ITS command window.
    build(UpdateMode::AUTO_SINGLE);
    Addr cmd_b = sys->kernel(1).mapCommandPages(*procB, dst, 1);

    Translation t = procB->space().translate(dst, false);
    PageNum dst_frame = pageOf(t.paddr);
    EXPECT_FALSE(
        sys->node(1).ni.nipt().entry(dst_frame).interruptOnArrival);

    Program pb("b");
    pb.movi(R2, cmd_b);
    pb.sti(R2, ShrimpNi::ctrlIntrOffset, 1, 4);     // request interrupt
    // Spin until the word arrives (the interrupt fires meanwhile).
    pb.movi(R1, dst);
    pb.label("wait");
    pb.ld(R3, R1, 0, 4);
    pb.cmpi(R3, 0xAB);
    pb.jnz("wait");
    // Turn it back off.
    pb.sti(R2, ShrimpNi::ctrlIntrOffset, 0, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    Program pa("a");
    // Small delay so B's interrupt request lands first.
    pa.movi(R2, 0);
    pa.movi(R3, 1000);
    pa.label("d");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("d");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0xAB, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);

    EXPECT_EQ(sys->kernel(1).arrivalCount(dst_frame), 1u);
    EXPECT_FALSE(
        sys->node(1).ni.nipt().entry(dst_frame).interruptOnArrival);
}

TEST_F(CommandPageFixture, StatusReadFromUserLevel)
{
    // A plain load from a command page returns the DMA status word.
    build(UpdateMode::DELIBERATE);
    Addr out = procA->allocate(1);

    Program pa("a");
    pa.movi(R2, cmd);
    pa.ld(R3, R2, 0, 4);        // engine idle: status == 0
    pa.movi(R1, out);
    pa.st(R1, 0, R3, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    EXPECT_EQ(peek32(*sys, 0, *procA, out), 0u);
}

TEST_F(CommandPageFixture, MalformedStartsAreIgnored)
{
    build(UpdateMode::DELIBERATE);

    Program pa("a");
    pa.movi(R2, cmd);
    pa.sti(R2, 0, 0, 4);            // zero word count
    pa.sti(R2, 0x800, 4096, 4);     // would cross the page end
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.ni.ignoredStarts"), 2u);
    EXPECT_EQ(snap.at("node0.ni.dma.transfers"), 0u);
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"), 0u);
}

TEST_F(CommandPageFixture, KernelCanRevokeCommandAccess)
{
    // Section 4.2: "If the kernel later decides to reallocate p to
    // another process, it can revoke X's right to access the command
    // pages." Revocation = unmapping the command window; further
    // access faults and the process is killed.
    build(UpdateMode::DELIBERATE);

    procA->space().pageTable().unmap(pageOf(cmd));

    Program pa("a");
    pa.movi(R2, cmd);
    pa.sti(R2, 0, 8, 4);        // faults: no translation
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    EXPECT_EQ(procA->ctx.faults, 1u);
    EXPECT_EQ(sys->snapshot().at("node0.ni.dma.transfers"), 0u);
}

} // namespace
} // namespace shrimp
