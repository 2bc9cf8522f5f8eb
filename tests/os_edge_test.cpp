/**
 * @file
 * Edge cases in the kernel's mapping machinery: double-mapping
 * refusal (one outgoing mapping per page half, the hardware limit of
 * Section 3.2), RPC queueing on the kernel channel when several map
 * operations are in flight to the same peer, unmap of mappings that
 * do not exist, and boot of a mesh too large for the DRAM frame
 * budget.
 */

#include <gtest/gtest.h>

#include <string>

#include "os/map_manager.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

TEST(OsEdge, DoubleMapOfSamePageRefused)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst1 = b->allocate(1);
    Addr dst2 = b->allocate(1);

    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst1, UpdateMode::AUTO_SINGLE),
              err::OK);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst2, UpdateMode::AUTO_SINGLE),
              err::AGAIN);
}

TEST(OsEdge, TwoHalvesOfOnePageMayMapSeparately)
{
    // The split mechanism allows exactly two mappings per page.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(2);

    EXPECT_EQ(sys.kernel(0).mapDirectRange(*a, src, PAGE_SIZE / 2,
                                           sys.kernel(1), *b, dst,
                                           UpdateMode::AUTO_SINGLE),
              err::OK);
    EXPECT_EQ(sys.kernel(0).mapDirectRange(
                  *a, src + PAGE_SIZE / 2, PAGE_SIZE / 2,
                  sys.kernel(1), *b, dst + PAGE_SIZE + PAGE_SIZE / 2,
                  UpdateMode::AUTO_SINGLE),
              err::OK);
    // A third mapping of either half is refused.
    EXPECT_EQ(sys.kernel(0).mapDirectRange(*a, src, PAGE_SIZE / 2,
                                           sys.kernel(1), *b,
                                           dst + PAGE_SIZE,
                                           UpdateMode::AUTO_SINGLE),
              err::AGAIN);
}

TEST(OsEdge, ConcurrentMapSyscallsQueueOnTheChannel)
{
    // Two processes on node 0 issue MAP syscalls to node 1 at the
    // same time; the per-peer RPC engine must serialize them and both
    // must succeed.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.kernel.quantum = 10 * ONE_US;
    ShrimpSystem sys(cfg);
    Process *b = sys.kernel(1).createProcess("b");
    Addr dsts[2] = {b->allocate(2), b->allocate(2)};
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    Process *procs[2];
    Addr outs[2];
    for (int i = 0; i < 2; ++i) {
        Process *p =
            sys.kernel(0).createProcess("m" + std::to_string(i));
        procs[i] = p;
        Addr src = p->allocate(2);
        Addr args = p->allocate(1);
        outs[i] = p->allocate(1);
        poke32(sys, 0, *p, args + 0, static_cast<std::uint32_t>(src));
        poke32(sys, 0, *p, args + 4, 2);
        poke32(sys, 0, *p, args + 8, 1);
        poke32(sys, 0, *p, args + 12, b->pid());
        poke32(sys, 0, *p, args + 16,
               static_cast<std::uint32_t>(dsts[i]));
        poke32(sys, 0, *p, args + 20,
               static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
        poke32(sys, 0, *p, args + 24, 0);

        Program prog(p->name());
        prog.movi(R1, args);
        prog.syscall(sys::MAP);
        prog.movi(R1, outs[i]);
        prog.st(R1, 0, R0, 4);
        // Prove the mapping works right away.
        prog.movi(R1, src);
        prog.sti(R1, 0, 0xE0 + i, 4);
        prog.halt();
        loadProgram(sys.kernel(0), *p, std::move(prog));
    }

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(5 * ONE_MS);

    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(peek32(sys, 0, *procs[i], outs[i]), err::OK);
        EXPECT_EQ(peek32(sys, 1, *b, dsts[i]),
                  static_cast<std::uint32_t>(0xE0 + i));
    }
    // Both operations (2 pages each) went over one serialized channel.
    EXPECT_GE(sys.snapshot().at("node0.kernel.map.rpcsSent"), 4u);
}

TEST(OsEdge, UnmapOfNonexistentMappingFails)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    Addr args = a->allocate(1);
    Addr out = a->allocate(1);

    poke32(sys, 0, *a, args + 0, static_cast<std::uint32_t>(src));
    poke32(sys, 0, *a, args + 4, 1);
    poke32(sys, 0, *a, args + 8, 1);
    poke32(sys, 0, *a, args + 12, b->pid());
    poke32(sys, 0, *a, args + 16, static_cast<std::uint32_t>(dst));
    poke32(sys, 0, *a, args + 20,
           static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
    poke32(sys, 0, *a, args + 24, 0);

    Program pa("a");
    pa.movi(R1, args);
    pa.syscall(sys::UNMAP);     // nothing was ever mapped
    pa.movi(R1, out);
    pa.st(R1, 0, R0, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    EXPECT_EQ(peek32(sys, 0, *a, out), err::INVAL);
}

TEST(OsEdge, RemapAfterUnmapSucceeds)
{
    // Unmap releases the page's outgoing half, so a fresh map of the
    // same page to a new destination must succeed.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst1 = b->allocate(1);
    Addr dst2 = b->allocate(1);
    Addr args = a->allocate(1);

    auto fill_args = [&](Addr dst) {
        poke32(sys, 0, *a, args + 0, static_cast<std::uint32_t>(src));
        poke32(sys, 0, *a, args + 4, 1);
        poke32(sys, 0, *a, args + 8, 1);
        poke32(sys, 0, *a, args + 12, b->pid());
        poke32(sys, 0, *a, args + 16, static_cast<std::uint32_t>(dst));
        poke32(sys, 0, *a, args + 20,
               static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
        poke32(sys, 0, *a, args + 24, 0);
    };

    fill_args(dst1);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst1, UpdateMode::AUTO_SINGLE),
              err::OK);

    // Unmap via syscall, then remap to dst2 via syscall.
    Program pa("a");
    pa.movi(R1, args);
    pa.syscall(sys::UNMAP);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));
    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);

    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst2, UpdateMode::AUTO_SINGLE),
              err::OK);
}

TEST(OsEdge, ReapedProcessMappingsAreTornDown)
{
    // A maps into B. B is reaped: the shootdown invalidates A's NIPT
    // entry, A's next store faults, the remap is refused (NOPROC for
    // a reaped process) and A is killed -- a dead process's memory
    // can never be written again.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0x11, 4);     // before the reap: arrives
    pa.movi(R2, 0);
    pa.movi(R3, 20'000);
    pa.label("d");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("d");
    pa.sti(R1, 4, 0x22, 4);     // after the reap: faults, A killed
    pa.sti(R1, 8, 0x33, 4);     // never executes
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.eventQueue().scheduleFn(
        [&sys, b] { sys.kernel(1).reapProcess(*b); }, 100 * ONE_US);

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited(5 * ONE_SEC));
    sys.runFor(10 * ONE_MS);

    EXPECT_EQ(peek32(sys, 1, *b, dst + 0), 0x11u);
    EXPECT_EQ(peek32(sys, 1, *b, dst + 4), 0u);
    EXPECT_EQ(peek32(sys, 1, *b, dst + 8), 0u);
    EXPECT_EQ(a->ctx.faults, 1u);
    EXPECT_EQ(a->state, ProcState::EXITED);

    Translation t = b->space().translate(dst, false);
    EXPECT_FALSE(sys.node(1).ni.nipt().mappedIn(pageOf(t.paddr)));
    EXPECT_FALSE(sys.kernel(1).frames().isPinned(pageOf(t.paddr)));
}

TEST(OsEdge, BootOutOfFramesNamesTheFix)
{
    // Every kernel pins 2 channel + 2*slotPages + 2 NX frames per
    // peer: 143 peers need 1144 of the default 4 MB's 1024 frames.
    SystemConfig cfg;
    cfg.meshWidth = 12;
    cfg.meshHeight = 12;
    try {
        ShrimpSystem sys(cfg);
        FAIL() << "a 12x12 boot at 4 MB per node should run out of frames";
    } catch (const std::logic_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("memBytesPerNode"), std::string::npos) << msg;
        EXPECT_NE(msg.find("1024 frames"), std::string::npos) << msg;
    }
}

TEST(OsEdge, LargeMeshBootsWithMoreDram)
{
    // Doubling simulated DRAM fits the frame budget; the sparse DRAM
    // store keeps the host cost to the pages actually written.
    SystemConfig cfg;
    cfg.meshWidth = 12;
    cfg.meshHeight = 12;
    cfg.memBytesPerNode = 8 * 1024 * 1024;
    ShrimpSystem sys(cfg);
    NodeId far = sys.numNodes() - 1;
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(far).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    ASSERT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(far), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);

    Program pa("a");
    pa.movi(R1, src);
    pa.sti(R1, 0x10, 0xfeedf00d, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(far), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(200 * ONE_US);
    EXPECT_EQ(peek32(sys, far, *b, dst + 0x10), 0xfeedf00du);
}

} // namespace
} // namespace shrimp
