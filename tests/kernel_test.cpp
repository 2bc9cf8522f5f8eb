/**
 * @file
 * Integration tests for the kernel: scheduling and multiprogramming,
 * syscalls, kernel links, and the full map()/unmap() protocol over the
 * in-band kernel channel.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "os/map_manager.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

struct KernelFixture : ::testing::Test
{
    std::unique_ptr<ShrimpSystem> sys;

    void
    build(SystemConfig cfg = test::twoNodeConfig())
    {
        sys = std::make_unique<ShrimpSystem>(cfg);
    }

    /** Write a MapArgs block into @p proc's memory at @p vaddr. */
    void
    pokeMapArgs(NodeId node, Process &proc, Addr vaddr,
                const MapArgs &args)
    {
        poke32(*sys, node, proc, vaddr + 0, args.localVaddr);
        poke32(*sys, node, proc, vaddr + 4, args.npages);
        poke32(*sys, node, proc, vaddr + 8, args.dstNode);
        poke32(*sys, node, proc, vaddr + 12, args.dstPid);
        poke32(*sys, node, proc, vaddr + 16, args.dstVaddr);
        poke32(*sys, node, proc, vaddr + 20, args.mode);
        poke32(*sys, node, proc, vaddr + 24, args.flags);
    }
};

TEST_F(KernelFixture, ProcessLifecycle)
{
    build();
    Process *p = sys->kernel(0).createProcess("p");
    Addr out = p->allocate(1);

    Program prog("p");
    prog.movi(R1, out);
    prog.syscall(sys::GETPID);
    prog.st(R1, 0, R0, 4);
    prog.syscall(sys::NODE_ID);
    prog.st(R1, 4, R0, 4);
    prog.syscall(sys::EXIT);
    loadProgram(sys->kernel(0), *p, std::move(prog));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    EXPECT_EQ(p->state, ProcState::EXITED);
    EXPECT_EQ(peek32(*sys, 0, *p, out), p->pid());
    EXPECT_EQ(peek32(*sys, 0, *p, out + 4), 0u);
}

TEST_F(KernelFixture, YieldAlternatesProcesses)
{
    build();
    Kernel &k = sys->kernel(0);
    Process *a = k.createProcess("a");
    Process *b = k.createProcess("b");
    // Shared observation: each process appends its tag via host check
    // of a shared counter word in its own memory after yielding N
    // times; we simply check both finish and switches happened.
    for (Process *p : {a, b}) {
        Program prog(p->name());
        for (int i = 0; i < 5; ++i)
            prog.syscall(sys::YIELD);
        prog.halt();
        loadProgram(k, *p, std::move(prog));
    }
    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    EXPECT_GE(sys->snapshot().at("node0.kernel.contextSwitches"), 10u);
}

TEST_F(KernelFixture, QuantumPreemptsCpuBoundProcess)
{
    SystemConfig cfg = test::twoNodeConfig();
    cfg.kernel.quantum = 100 * ONE_US;
    build(cfg);
    Kernel &k = sys->kernel(0);

    // Two CPU-bound loops; without preemption the first would hog the
    // CPU to completion.
    std::vector<Process *> procs;
    for (const char *name : {"a", "b"}) {
        Process *p = k.createProcess(name);
        Program prog(name);
        prog.movi(R1, 0);
        prog.movi(R2, 50'000);
        prog.label("loop");
        prog.addi(R1, 1);
        prog.cmp(R1, R2);
        prog.jl("loop");
        prog.halt();
        loadProgram(k, *p, std::move(prog));
        procs.push_back(p);
    }
    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    // ~150k instructions per process at 60 MHz = ~2.5 ms each; a
    // 100 us quantum forces many switches.
    EXPECT_GT(sys->snapshot().at("node0.kernel.contextSwitches"), 10u);
}

TEST_F(KernelFixture, MapSyscallEstablishesWorkingMapping)
{
    build();
    Process *a = sys->kernel(0).createProcess("a");
    Process *b = sys->kernel(1).createProcess("b");
    Addr src = a->allocate(2);
    Addr dst = b->allocate(2);
    Addr args_block = a->allocate(1);
    Addr result = a->allocate(1);

    MapArgs args;
    args.localVaddr = static_cast<std::uint32_t>(src);
    args.npages = 2;
    args.dstNode = 1;
    args.dstPid = b->pid();
    args.dstVaddr = static_cast<std::uint32_t>(dst);
    args.mode = static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE);
    pokeMapArgs(0, *a, args_block, args);

    Program pa("a");
    pa.movi(R1, args_block);
    pa.syscall(sys::MAP);
    pa.movi(R1, result);
    pa.st(R1, 0, R0, 4);        // record the syscall status
    // Use the fresh mapping immediately: second page too.
    pa.movi(R1, src);
    pa.sti(R1, 0x10, 0x11110001, 4);
    pa.sti(R1, PAGE_SIZE + 0x20, 0x11110002, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *a, std::move(pa));

    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *b, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);

    EXPECT_EQ(peek32(*sys, 0, *a, result), err::OK);
    EXPECT_EQ(peek32(*sys, 1, *b, dst + 0x10), 0x11110001u);
    EXPECT_EQ(peek32(*sys, 1, *b, dst + PAGE_SIZE + 0x20),
              0x11110002u);

    // The protocol really went over the wire.
    EXPECT_GE(sys->snapshot().at("node0.kernel.map.rpcsSent"), 2u);
    // Mapped-out pages became write-through.
    EXPECT_EQ(a->space().translate(src, false).policy,
              CachePolicy::WRITE_THROUGH);
    // Destination frames are pinned under the default PIN policy.
    Translation t = b->space().translate(dst, false);
    EXPECT_TRUE(sys->kernel(1).frames().isPinned(pageOf(t.paddr)));
}

TEST_F(KernelFixture, MapSyscallRejectsBadArguments)
{
    build();
    Process *a = sys->kernel(0).createProcess("a");
    Process *b = sys->kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);

    // The helper processes just exit; `b` exists as a map target.
    Program trivial_a("a");
    trivial_a.halt();
    loadProgram(sys->kernel(0), *a, std::move(trivial_a));
    Program trivial_b("b");
    trivial_b.halt();
    loadProgram(sys->kernel(1), *b, std::move(trivial_b));

    struct Case
    {
        MapArgs args;
        std::uint32_t expect;
        bool patchLocal = true;     //!< point localVaddr at the
                                    //!< runner's own valid page
    };
    std::vector<Case> cases;

    MapArgs good;
    good.localVaddr = static_cast<std::uint32_t>(src);
    good.npages = 1;
    good.dstNode = 1;
    good.dstPid = b->pid();
    good.dstVaddr = static_cast<std::uint32_t>(dst);
    good.mode = static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE);

    Case zero_pages{good, err::INVAL};
    zero_pages.args.npages = 0;
    cases.push_back(zero_pages);

    Case self_node{good, err::INVAL};
    self_node.args.dstNode = 0;
    cases.push_back(self_node);

    Case bad_pid{good, err::NOPROC};
    bad_pid.args.dstPid = 999;
    cases.push_back(bad_pid);

    Case bad_local{good, err::PERM};
    bad_local.args.localVaddr = 0x7000'0000;
    bad_local.patchLocal = false;
    cases.push_back(bad_local);

    Case bad_remote{good, err::INVAL};  // no translation at the dest
    bad_remote.args.dstVaddr = 0x7000'0000;
    cases.push_back(bad_remote);

    Case bad_mode{good, err::INVAL};
    bad_mode.args.mode = 77;
    cases.push_back(bad_mode);

    for (std::size_t i = 0; i < cases.size(); ++i) {
        // Fresh single-shot runner per case, with the args block in
        // its own space.
        Process *p = sys->kernel(0).createProcess("runner");
        Addr rb = p->allocate(1);
        Addr rr = p->allocate(1);
        MapArgs case_args = cases[i].args;
        if (cases[i].patchLocal) {
            case_args.localVaddr =
                static_cast<std::uint32_t>(p->allocate(1));
        }
        pokeMapArgs(0, *p, rb, case_args);
        Program prog("runner");
        prog.movi(R1, rb);
        prog.syscall(sys::MAP);
        prog.movi(R1, rr);
        prog.st(R1, 0, R0, 4);
        prog.halt();
        loadProgram(sys->kernel(0), *p, std::move(prog));
        sys->startAll();
        ASSERT_TRUE(sys->runUntilAllExited()) << "case " << i;
        EXPECT_EQ(peek32(*sys, 0, *p, rr), cases[i].expect)
            << "case " << i;
    }
}

TEST_F(KernelFixture, UnmapStopsPropagationAndUnpins)
{
    build();
    Process *a = sys->kernel(0).createProcess("a");
    Process *b = sys->kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    Addr args_block = a->allocate(1);

    MapArgs args;
    args.localVaddr = static_cast<std::uint32_t>(src);
    args.npages = 1;
    args.dstNode = 1;
    args.dstPid = b->pid();
    args.dstVaddr = static_cast<std::uint32_t>(dst);
    args.mode = static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE);
    pokeMapArgs(0, *a, args_block, args);

    Program pa("a");
    pa.movi(R1, args_block);
    pa.syscall(sys::MAP);
    pa.movi(R1, src);
    pa.sti(R1, 0, 0xAA, 4);     // propagates
    pa.movi(R1, args_block);
    pa.syscall(sys::UNMAP);
    pa.movi(R1, src);
    pa.sti(R1, 4, 0xBB, 4);     // must NOT propagate
    pa.halt();
    loadProgram(sys->kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys->kernel(1), *b, std::move(pb));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);

    EXPECT_EQ(peek32(*sys, 1, *b, dst + 0), 0xAAu);
    EXPECT_EQ(peek32(*sys, 1, *b, dst + 4), 0u);
    Translation t = b->space().translate(dst, false);
    EXPECT_FALSE(sys->kernel(1).frames().isPinned(pageOf(t.paddr)));
    EXPECT_FALSE(sys->node(1).ni.nipt().mappedIn(pageOf(t.paddr)));
}

TEST_F(KernelFixture, WaitArrivalBlocksUntilData)
{
    build();
    Process *a = sys->kernel(0).createProcess("a");
    Process *b = sys->kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    Addr out = b->allocate(1);
    sys->kernel(0).mapDirect(*a, src, 1, sys->kernel(1), *b, dst,
                             UpdateMode::AUTO_SINGLE,
                             /*arrival_interrupt=*/true);

    // Receiver waits for the arrival interrupt instead of spinning.
    Program pb("b");
    pb.movi(R1, dst);
    pb.movi(R2, 0);             // last seen count
    pb.syscall(sys::WAIT_ARRIVAL);
    pb.movi(R1, out);
    pb.st(R1, 0, R0, 4);        // arrival count returned
    pb.movi(R1, dst);
    pb.ld(R2, R1, 0, 4);        // the data is already in memory
    pb.movi(R1, out);
    pb.st(R1, 4, R2, 4);
    pb.halt();
    loadProgram(sys->kernel(1), *b, std::move(pb));

    // Sender delays a while so the receiver really blocks first.
    Program pa("a");
    pa.movi(R2, 0);
    pa.movi(R3, 2000);
    pa.label("delay");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("delay");
    pa.movi(R1, src);
    pa.sti(R1, 0, 0x77, 4);
    pa.halt();
    loadProgram(sys->kernel(0), *a, std::move(pa));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    EXPECT_EQ(peek32(*sys, 1, *b, out), 1u);
    EXPECT_EQ(peek32(*sys, 1, *b, out + 4), 0x77u);
}

TEST_F(KernelFixture, CmpxchgClaimIsSafeAcrossContextSwitches)
{
    // Two processes on one node race to claim the single DMA engine
    // with CMPXCHG while being preempted; exactly the scenario the
    // paper's atomic-claim protocol exists for (Section 4.3).
    SystemConfig cfg = test::twoNodeConfig();
    cfg.kernel.quantum = 50 * ONE_US;
    build(cfg);
    Process *recv = sys->kernel(1).createProcess("r");
    Addr dst = recv->allocate(2);

    std::vector<Process *> senders;
    std::vector<Addr> outs;
    for (int i = 0; i < 2; ++i) {
        Process *p = sys->kernel(0).createProcess("s" +
                                                  std::to_string(i));
        Addr src = p->allocate(1);
        Addr out = p->allocate(1);
        sys->kernel(0).mapDirect(*p, src, 1, sys->kernel(1), *recv,
                                 dst + i * PAGE_SIZE,
                                 UpdateMode::DELIBERATE);
        Addr cmd = sys->kernel(0).mapCommandPages(*p, src, 1);

        // Fill the page, claim the engine (spinning on CMPXCHG),
        // count claim attempts, wait for completion.
        for (Addr off = 0; off < PAGE_SIZE; off += 4)
            poke32(*sys, 0, *p, src + off,
                   static_cast<std::uint32_t>(0x5000 + i));

        Program prog(p->name());
        prog.movi(R3, cmd);         // command address
        prog.movi(R2, 1024);        // full page, in words
        prog.movi(R5, 0);           // claim attempts
        prog.label("claim");
        prog.addi(R5, 1);
        prog.movi(R0, 0);
        prog.cmpxchg(R3, 0, R2, 4);
        prog.jnz("claim");
        prog.label("wait");
        prog.ld(R1, R3, 0, 4);
        prog.cmpi(R1, 0);
        prog.jnz("wait");
        prog.movi(R1, out);
        prog.st(R1, 0, R5, 4);
        prog.halt();
        loadProgram(sys->kernel(0), *p, std::move(prog));
        senders.push_back(p);
        outs.push_back(out);
    }
    Program pr("r");
    pr.halt();
    loadProgram(sys->kernel(1), *recv, std::move(pr));

    sys->startAll();
    ASSERT_TRUE(sys->runUntilAllExited());
    sys->runFor(ONE_MS);

    // Both transfers completed despite contention.
    EXPECT_EQ(sys->snapshot().at("node0.ni.dma.transfers"), 2u);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(peek32(*sys, 1, *recv, dst + i * PAGE_SIZE),
                  0x5000u + i);
        EXPECT_GE(peek32(*sys, 0, *senders[i], outs[i]), 1u);
    }
}

/** Two nodes on a 2x1 mesh, built without ShrimpSystem so a test can
 *  open links of its own before wiring them as boot does. */
struct BareNodes
{
    SystemConfig cfg = test::twoNodeConfig();
    EventQueue eq;
    MeshBackplane mesh{eq, "mesh", cfg.meshWidth, cfg.meshHeight,
                       cfg.router};
    Node a{eq, 0, cfg, mesh};
    Node b{eq, 1, cfg, mesh};
};

/** Records the peer of every arrival on its links. */
struct RecordingHandler : LinkHandler
{
    std::vector<NodeId> arrivals;

    std::uint64_t
    handleArrival(NodeId peer) override
    {
        arrivals.push_back(peer);
        return 0;
    }
};

TEST(KernelLinks, PairByOpeningOrderAndCarryStoresToThePeer)
{
    // Each kernel's extra link comes after its services' links, so
    // wiring pairs the two extras; a word stored into one side's out
    // frame lands in the other side's in frame and interrupts there.
    BareNodes m;
    RecordingHandler on_b;
    KernelLink a_link =
        m.a.kernel.openLink(1, UpdateMode::AUTO_SINGLE, "test link");
    KernelLink b_link = m.b.kernel.openLink(0, UpdateMode::AUTO_SINGLE,
                                            "test link", &on_b);
    m.a.kernel.wireLinks(m.b.kernel);

    const OutMapping &out = m.a.ni.nipt().entry(a_link.out).outLow;
    EXPECT_EQ(out.mode, UpdateMode::AUTO_SINGLE);
    EXPECT_EQ(out.dstNode, 1u);
    EXPECT_EQ(out.dstPage, b_link.in);
    EXPECT_EQ(m.b.ni.nipt().entry(b_link.out).outLow.dstPage, a_link.in);

    m.a.kernel.writeLinkWord(a_link, 8, 0xC0FFEE);
    m.eq.runUntil(ONE_MS);
    EXPECT_EQ(m.b.kernel.readLinkWord(b_link, 8), 0xC0FFEEu);
    EXPECT_EQ(on_b.arrivals, std::vector<NodeId>{0});
}

TEST(KernelLinks, UnmatchedLinkPanicsNamingBothNodes)
{
    // A link toward a peer that opened none in return has no frame to
    // map onto: boot must fail loudly, never wire a wrong frame.
    auto panic_of = [](BareNodes &m) {
        try {
            m.a.kernel.wireLinks(m.b.kernel);
        } catch (const std::logic_error &e) {
            return std::string(e.what());
        }
        return std::string("no panic");
    };
    BareNodes extra;
    extra.a.kernel.openLink(1, UpdateMode::AUTO_SINGLE, "test link");
    std::string msg = panic_of(extra);
    EXPECT_NE(msg.find("node 0 opened"), std::string::npos) << msg;
    EXPECT_NE(msg.find("toward node 1"), std::string::npos) << msg;

    // Links of different kinds at the same opening order fail too.
    BareNodes kinds;
    kinds.a.kernel.openLink(1, UpdateMode::AUTO_SINGLE, "test link");
    kinds.b.kernel.openLink(0, UpdateMode::DELIBERATE, "other link");
    msg = panic_of(kinds);
    EXPECT_NE(msg.find("'test link' on node 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'other link' on node 1"), std::string::npos)
        << msg;
}

} // namespace
} // namespace shrimp
