/**
 * @file
 * Tests for both NX/2 implementations: the kernel-level baseline
 * (syscalls + kernel buffers + interrupts, modeling the iPSC/2
 * architecture the paper compares against) and the user-level
 * implementation over mapped rings (Section 5.2).
 */

#include <gtest/gtest.h>

#include "core/nx2_setup.hh"
#include "os/nx_service.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

struct NxFixture : ::testing::Test
{
    std::unique_ptr<ShrimpSystem> sys;
    Process *procA = nullptr;
    Process *procB = nullptr;

    void
    build()
    {
        sys = std::make_unique<ShrimpSystem>(test::twoNodeConfig());
        procA = sys->kernel(0).createProcess("A");
        procB = sys->kernel(1).createProcess("B");
    }

    /** Write an NxArgs block at @p vaddr in @p proc's memory. */
    void
    pokeNxArgs(NodeId node, Process &proc, Addr vaddr,
               std::uint32_t type, Addr buf, std::uint32_t nbytes,
               std::uint32_t peer_node, std::uint32_t pid)
    {
        poke32(*sys, node, proc, vaddr + 0, type);
        poke32(*sys, node, proc, vaddr + 4,
               static_cast<std::uint32_t>(buf));
        poke32(*sys, node, proc, vaddr + 8, nbytes);
        poke32(*sys, node, proc, vaddr + 12, peer_node);
        poke32(*sys, node, proc, vaddr + 16, pid);
    }
};

TEST_F(NxFixture, KernelCsendCrecvRoundtrip)
{
    build();
    constexpr std::uint32_t kBytes = 256;
    Addr sbuf = procA->allocate(1);
    Addr sargs = procA->allocate(1);
    Addr rbuf = procB->allocate(1);
    Addr rargs = procB->allocate(1);
    Addr rout = procB->allocate(1);

    for (std::uint32_t i = 0; i < kBytes / 4; ++i)
        poke32(*sys, 0, *procA, sbuf + 4 * i, 0xAB000000 + i);

    pokeNxArgs(0, *procA, sargs, 7, sbuf, kBytes, 1, procB->pid());
    pokeNxArgs(1, *procB, rargs, 7, rbuf, kBytes, 0, 0);

    Program pa("a");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Program pb("b");
    pb.movi(R1, rargs);
    pb.syscall(sys::NX_CRECV);
    pb.movi(R1, rout);
    pb.st(R1, 0, R0, 4);        // crecv returns nbytes
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    sys->runFor(ONE_MS);

    EXPECT_EQ(peek32(*sys, 1, *procB, rout), kBytes);
    for (std::uint32_t i = 0; i < kBytes / 4; ++i)
        ASSERT_EQ(peek32(*sys, 1, *procB, rbuf + 4 * i),
                  0xAB000000 + i);
    stats::Snapshot snap = sys->snapshot();
    EXPECT_EQ(snap.at("node0.kernel.nx.messagesSent"), 1u);
    EXPECT_EQ(snap.at("node1.kernel.nx.messagesDelivered"), 1u);
}

TEST_F(NxFixture, KernelCrecvBlocksUntilMessage)
{
    build();
    Addr sbuf = procA->allocate(1);
    Addr sargs = procA->allocate(1);
    Addr rbuf = procB->allocate(1);
    Addr rargs = procB->allocate(1);

    poke32(*sys, 0, *procA, sbuf, 0x42);
    pokeNxArgs(0, *procA, sargs, 3, sbuf, 4, 1, procB->pid());
    pokeNxArgs(1, *procB, rargs, 3, rbuf, 4, 0, 0);

    // Receiver first (blocks), sender delayed.
    Program pb("b");
    pb.movi(R1, rargs);
    pb.syscall(sys::NX_CRECV);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    Program pa("a");
    pa.movi(R2, 0);
    pa.movi(R3, 5000);
    pa.label("delay");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("delay");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    EXPECT_EQ(peek32(*sys, 1, *procB, rbuf), 0x42u);
}

TEST_F(NxFixture, KernelBackToBackSendsRespectSlotCredit)
{
    build();
    constexpr int kMsgs = 4;
    Addr sbuf = procA->allocate(1);
    Addr sargs = procA->allocate(1);
    Addr rbuf = procB->allocate(1);
    Addr rargs = procB->allocate(1);
    Addr rout = procB->allocate(1);

    pokeNxArgs(0, *procA, sargs, 9, sbuf, 4, 1, procB->pid());
    pokeNxArgs(1, *procB, rargs, 9, rbuf, 4, 0, 0);

    // Sender fires kMsgs messages back to back, bumping the payload
    // each time; the one-slot protocol must serialize them.
    Program pa("a");
    pa.movi(R4, 0);
    pa.movi(R5, kMsgs);
    pa.movi(R6, sbuf);
    pa.label("loop");
    pa.addi(R4, 1);
    pa.st(R6, 0, R4, 4);
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.cmp(R4, R5);
    pa.jl("loop");
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    // Receiver consumes them in order.
    Program pb("b");
    pb.movi(R4, 0);
    pb.movi(R5, kMsgs);
    pb.movi(R6, rout);
    pb.label("loop");
    pb.movi(R1, rargs);
    pb.syscall(sys::NX_CRECV);
    pb.movi(R2, rbuf);
    pb.ld(R3, R2, 0, 4);
    pb.st(R6, 0, R3, 4);
    pb.addi(R6, 4);
    pb.addi(R4, 1);
    pb.cmp(R4, R5);
    pb.jl("loop");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(peek32(*sys, 1, *procB, rout + 4 * i),
                  static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(sys->snapshot().at("node0.kernel.nx.messagesSent"),
              static_cast<std::uint64_t>(kMsgs));
}

TEST_F(NxFixture, KernelLargeMessageSpansPages)
{
    build();
    constexpr std::uint32_t kBytes = NxService::maxMessageBytes;
    Addr sbuf = procA->allocate(NxService::slotPages);
    Addr sargs = procA->allocate(1);
    Addr rbuf = procB->allocate(NxService::slotPages);
    Addr rargs = procB->allocate(1);

    for (std::uint32_t off = 0; off < kBytes; off += 4)
        poke32(*sys, 0, *procA, sbuf + off, off * 3 + 1);

    pokeNxArgs(0, *procA, sargs, 11, sbuf, kBytes, 1, procB->pid());
    pokeNxArgs(1, *procB, rargs, 11, rbuf, kBytes, 0, 0);

    Program pa("a");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.movi(R1, rargs);
    pb.syscall(sys::NX_CRECV);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    for (std::uint32_t off = 0; off < kBytes; off += 4)
        ASSERT_EQ(peek32(*sys, 1, *procB, rbuf + off), off * 3 + 1)
            << "offset " << off;
}

TEST_F(NxFixture, KernelCsendRejectsBadArguments)
{
    build();
    Addr sbuf = procA->allocate(1);
    Addr sargs = procA->allocate(1);
    Addr sout = procA->allocate(1);

    // Oversized message.
    pokeNxArgs(0, *procA, sargs, 1, sbuf,
               NxService::maxMessageBytes + 4, 1, procB->pid());

    Program pa("a");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.movi(R1, sout);
    pa.st(R1, 0, R0, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    EXPECT_EQ(peek32(*sys, 0, *procA, sout), err::INVAL);
}

/** A user address no process in these tests maps. */
constexpr Addr kUnmapped = 0x7000'0000;

TEST_F(NxFixture, KernelCsendFromUnmappedBufferFailsAndProgramRunsOn)
{
    build();
    Addr sargs = procA->allocate(1);
    Addr sout = procA->allocate(1);
    pokeNxArgs(0, *procA, sargs, 1, kUnmapped, 64, 1, procB->pid());

    Program pa("a");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.movi(R1, sout);
    pa.st(R1, 0, R0, 4);
    pa.sti(R1, 4, 0xD0E, 4);    // still running after the call
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    EXPECT_EQ(peek32(*sys, 0, *procA, sout), err::INVAL);
    EXPECT_EQ(peek32(*sys, 0, *procA, sout + 4), 0xD0Eu);
    EXPECT_EQ(sys->snapshot().at("node0.kernel.nx.messagesSent"), 0u);
}

TEST_F(NxFixture, KernelCrecvIntoUnmappedBufferFailsAndProgramRunsOn)
{
    build();
    Addr rargs = procB->allocate(1);
    Addr rout = procB->allocate(1);
    pokeNxArgs(1, *procB, rargs, 1, kUnmapped, 64, 0, 0);

    Program pa("a");
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.movi(R1, rargs);
    pb.syscall(sys::NX_CRECV);  // would block forever if it waited
    pb.movi(R1, rout);
    pb.st(R1, 0, R0, 4);
    pb.sti(R1, 4, 0xD0E, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    EXPECT_EQ(peek32(*sys, 1, *procB, rout), err::INVAL);
    EXPECT_EQ(peek32(*sys, 1, *procB, rout + 4), 0xD0Eu);
}

TEST_F(NxFixture, KernelCrecvTooSmallFailsAndMessageWaitsForRoom)
{
    // A 16-byte crecv of a 64-byte message fails without touching the
    // bytes past its buffer; the message stays queued, and the next
    // crecv with room gets it whole.
    build();
    constexpr std::uint32_t kBytes = 64;
    constexpr std::uint32_t kSmall = 16;
    constexpr std::uint32_t kGuard = 0x5A5A5A5A;
    Addr sbuf = procA->allocate(1);
    Addr sargs = procA->allocate(1);
    Addr small = procB->allocate(1);
    Addr small_args = procB->allocate(1);
    Addr big = procB->allocate(1);
    Addr big_args = procB->allocate(1);
    Addr rout = procB->allocate(1);

    for (std::uint32_t i = 0; i < kBytes / 4; ++i) {
        poke32(*sys, 0, *procA, sbuf + 4 * i, 0xAB000000 + i);
        poke32(*sys, 1, *procB, small + 4 * i, kGuard);
    }
    pokeNxArgs(0, *procA, sargs, 5, sbuf, kBytes, 1, procB->pid());
    pokeNxArgs(1, *procB, small_args, 5, small, kSmall, 0, 0);
    pokeNxArgs(1, *procB, big_args, 5, big, kBytes, 0, 0);

    Program pa("a");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Program pb("b");
    pb.movi(R1, small_args);
    pb.syscall(sys::NX_CRECV);
    pb.movi(R1, rout);
    pb.st(R1, 0, R0, 4);
    pb.movi(R1, big_args);
    pb.syscall(sys::NX_CRECV);
    pb.movi(R1, rout);
    pb.st(R1, 4, R0, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    EXPECT_EQ(peek32(*sys, 1, *procB, rout), err::INVAL);
    EXPECT_EQ(peek32(*sys, 1, *procB, rout + 4), kBytes);
    for (std::uint32_t i = 0; i < kBytes / 4; ++i) {
        EXPECT_EQ(peek32(*sys, 1, *procB, small + 4 * i), kGuard)
            << "small buffer word " << i;
        EXPECT_EQ(peek32(*sys, 1, *procB, big + 4 * i), 0xAB000000 + i)
            << "big buffer word " << i;
    }
    EXPECT_EQ(sys->snapshot().at("node1.kernel.nx.messagesDelivered"),
              1u);
}

TEST_F(NxFixture, KernelUnalignedMessageSpansPages)
{
    // Buffers that start mid-page split each message page across two
    // user pages: every byte still lands in order.
    build();
    constexpr std::uint32_t kBytes = NxService::maxMessageBytes;
    Addr sbuf = procA->allocate(NxService::slotPages + 1) + 100;
    Addr sargs = procA->allocate(1);
    Addr rbuf = procB->allocate(NxService::slotPages + 1) + 200;
    Addr rargs = procB->allocate(1);

    for (std::uint32_t off = 0; off < kBytes; off += 4)
        poke32(*sys, 0, *procA, sbuf + off, off * 7 + 3);
    pokeNxArgs(0, *procA, sargs, 13, sbuf, kBytes, 1, procB->pid());
    pokeNxArgs(1, *procB, rargs, 13, rbuf, kBytes, 0, 0);

    Program pa("a");
    pa.movi(R1, sargs);
    pa.syscall(sys::NX_CSEND);
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));
    Program pb("b");
    pb.movi(R1, rargs);
    pb.syscall(sys::NX_CRECV);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    for (std::uint32_t off = 0; off < kBytes; off += 4)
        ASSERT_EQ(peek32(*sys, 1, *procB, rbuf + off), off * 7 + 3)
            << "offset " << off;
}

TEST_F(NxFixture, UserLevelRingRoundtrip)
{
    build();
    Nx2Connection conn =
        setupNx2Connection(*sys, 0, *procA, 1, *procB);

    constexpr std::uint32_t kBytes = 128;
    Addr sbuf = procA->allocate(1);
    Addr rbuf = procB->allocate(1);
    for (std::uint32_t i = 0; i < kBytes / 4; ++i)
        poke32(*sys, 0, *procA, sbuf + 4 * i, 0xCD000000 + i);

    Program pa("a");
    pa.jmp("main");
    msg::emitNx2Csend(pa, conn.sender, "nx_csend");
    pa.label("main");
    pa.movi(R1, 21);            // type
    pa.movi(R2, sbuf);
    pa.movi(R3, kBytes);
    pa.call("nx_csend");
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Addr rout = procB->allocate(1);
    Program pb("b");
    pb.jmp("main");
    msg::emitNx2Crecv(pb, conn.receiver, "nx_crecv", "type_err");
    pb.label("type_err");
    pb.halt();
    pb.label("main");
    pb.movi(R1, 21);
    pb.movi(R2, rbuf);
    pb.call("nx_crecv");
    pb.movi(R1, rout);
    pb.st(R1, 0, R0, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    sys->runFor(ONE_MS);

    EXPECT_EQ(peek32(*sys, 1, *procB, rout), kBytes);
    for (std::uint32_t i = 0; i < kBytes / 4; ++i)
        ASSERT_EQ(peek32(*sys, 1, *procB, rbuf + 4 * i),
                  0xCD000000 + i);
}

TEST_F(NxFixture, UserLevelRingManyMessagesInOrder)
{
    build();
    Nx2Connection conn =
        setupNx2Connection(*sys, 0, *procA, 1, *procB);

    constexpr int kMsgs = 16;   // forces ring wrap + credit waits
    Addr sbuf = procA->allocate(1);
    Addr rbuf = procB->allocate(1);
    Addr rout = procB->allocate(1);

    Program pa("a");
    pa.jmp("main");
    msg::emitNx2Csend(pa, conn.sender, "nx_csend");
    pa.label("main");
    pa.movi(R6, 0);             // message index
    pa.label("loop");
    pa.movi(R2, sbuf);
    pa.st(R2, 0, R6, 4);        // payload = index
    pa.movi(R1, 5);             // type
    pa.movi(R3, 4);
    pa.call("nx_csend");
    pa.addi(R6, 1);
    pa.cmpi(R6, kMsgs);
    pa.jl("loop");
    pa.halt();
    loadProgram(sys->kernel(0), *procA, std::move(pa));

    Program pb("b");
    pb.jmp("main");
    msg::emitNx2Crecv(pb, conn.receiver, "nx_crecv", "type_err");
    pb.label("type_err");
    pb.halt();
    pb.label("main");
    pb.movi(R6, 0);
    pb.label("loop");
    pb.movi(R1, 5);
    pb.movi(R2, rbuf);
    pb.call("nx_crecv");
    pb.movi(R2, rbuf);
    pb.ld(R3, R2, 0, 4);
    pb.movi(R2, rout);
    pb.add(R2, R6);
    pb.add(R2, R6);
    pb.add(R2, R6);
    pb.add(R2, R6);             // rout + 4*i
    pb.st(R2, 0, R3, 4);
    pb.addi(R6, 1);
    pb.cmpi(R6, kMsgs);
    pb.jl("loop");
    pb.halt();
    loadProgram(sys->kernel(1), *procB, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited(ONE_SEC));
    for (int i = 0; i < kMsgs; ++i)
        ASSERT_EQ(peek32(*sys, 1, *procB, rout + 4 * i),
                  static_cast<std::uint32_t>(i))
            << "message " << i;
}

} // namespace
} // namespace shrimp
