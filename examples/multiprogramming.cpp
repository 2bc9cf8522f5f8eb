/**
 * @file
 * Multiprogramming: two independent parallel jobs timeshare the same
 * two-node machine. Because protection lives in the mappings (set up
 * once by map()) rather than in scheduling, the jobs' communications
 * interleave freely under preemptive round-robin scheduling with no
 * gang scheduling and no cross-talk -- the design property the paper
 * contrasts with the CM-5 (Sections 1-2).
 *
 * Job "ping" ping-pongs a counter via automatic update. Job "bulk"
 * pushes deliberate-update block transfers through the shared DMA
 * engine (claimed with the atomic CMPXCHG protocol, which is exactly
 * what makes it safe under arbitrary context switches).
 *
 * Run: ./multiprogramming
 */

#include <cstdio>

#include "core/system.hh"
#include "msg/deliberate.hh"

using namespace shrimp;

int
main()
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.kernel.quantum = 50 * ONE_US;   // aggressive timesharing
    ShrimpSystem sys(cfg);

    // ---- job 1: ping-pong (one process per node) ----
    Process *ping = sys.kernel(0).createProcess("ping");
    Process *pong = sys.kernel(1).createProcess("pong");
    Addr pflag0 = ping->allocate(1);
    Addr pflag1 = pong->allocate(1);
    sys.kernel(0).mapDirect(*ping, pflag0, 1, sys.kernel(1), *pong,
                            pflag1, UpdateMode::AUTO_SINGLE);
    sys.kernel(1).mapDirect(*pong, pflag1, 1, sys.kernel(0), *ping,
                            pflag0, UpdateMode::AUTO_SINGLE);

    constexpr int kRounds = 60;
    {
        Program p("ping");
        p.movi(R6, pflag0);
        p.movi(R5, 0);
        p.label("round");
        p.addi(R5, 1);
        p.st(R6, 0, R5, 4);
        p.label("echo");
        p.ld(R1, R6, 4, 4);
        p.cmp(R1, R5);
        p.jl("echo");
        p.cmpi(R5, kRounds);
        p.jl("round");
        p.halt();
        p.finalize();
        sys.kernel(0).loadAndReady(
            *ping, std::make_shared<Program>(std::move(p)));
    }
    {
        Program p("pong");
        p.movi(R6, pflag1);
        p.movi(R5, 0);
        p.label("round");
        p.addi(R5, 1);
        p.label("wait");
        p.ld(R1, R6, 0, 4);
        p.cmp(R1, R5);
        p.jl("wait");
        p.st(R6, 4, R5, 4);
        p.cmpi(R5, kRounds);
        p.jl("round");
        p.halt();
        p.finalize();
        sys.kernel(1).loadAndReady(
            *pong, std::make_shared<Program>(std::move(p)));
    }

    // ---- job 2: bulk transfers (also one process per node) ----
    Process *src = sys.kernel(0).createProcess("bulk-src");
    Process *sink = sys.kernel(1).createProcess("bulk-sink");
    constexpr int kBlocks = 8;
    Addr bbuf = src->allocate(1);
    Addr bdst = sink->allocate(static_cast<std::size_t>(kBlocks));
    // One source page mapped to each destination page in turn would
    // need remapping; instead map the source page to the first dest
    // page and rotate the payload -- simpler, and what we verify is
    // the count and integrity of transfers under timesharing.
    sys.kernel(0).mapDirect(*src, bbuf, 1, sys.kernel(1), *sink, bdst,
                            UpdateMode::DELIBERATE);
    Addr cmd = sys.kernel(0).mapCommandPages(*src, bbuf, 1);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(bbuf);

    {
        Program p("bulk-src");
        p.movi(R6, 0);      // block number
        p.label("block");
        p.addi(R6, 1);
        // Payload: 128 words of (block << 16) + j.
        p.movi(R2, bbuf);
        p.mov(R0, R6);
        p.shli(R0, 16);
        p.movi(R1, 0);
        p.label("fill");
        p.st(R2, 0, R0, 4);
        p.addi(R2, 4);
        p.addi(R0, 1);
        p.addi(R1, 1);
        p.cmpi(R1, 128);
        p.jl("fill");
        // Deliberate send of the block; the CMPXCHG claim makes this
        // safe even though the quantum may expire anywhere.
        p.movi(R3, bbuf);
        p.movi(R1, 128 * 4);
        msg::emitDeliberateSendSingle(p, cmd_delta, "s", "multi");
        p.label("wait");
        msg::emitDeliberateCheck(p);
        p.jnz("wait");
        p.cmpi(R6, kBlocks);
        p.jl("block");
        p.halt();
        p.label("multi");
        p.halt();
        p.finalize();
        sys.kernel(0).loadAndReady(
            *src, std::make_shared<Program>(std::move(p)));
    }
    {
        // The sink waits for the final block's last word.
        Program p("bulk-sink");
        p.movi(R1, bdst);
        std::uint64_t last =
            (static_cast<std::uint64_t>(kBlocks) << 16) + 127;
        p.label("wait");
        p.ld(R2, R1, 127 * 4, 4);
        p.cmpi(R2, static_cast<std::int64_t>(last));
        p.jnz("wait");
        p.halt();
        p.finalize();
        sys.kernel(1).loadAndReady(
            *sink, std::make_shared<Program>(std::move(p)));
    }

    sys.startAll();
    bool done = sys.runUntilAllExited();
    sys.runFor(ONE_MS);

    auto peek = [&](Process &proc, NodeId node, Addr va) {
        Translation t = proc.space().translate(va, false);
        return sys.node(node).mem.readInt(t.paddr, 4);
    };

    bool ok = done;
    // Job 1 finished all rounds.
    ok = ok && peek(*ping, 0, pflag0 + 4) == kRounds;
    // Job 2's final block arrived intact.
    for (int j = 0; j < 128 && ok; ++j) {
        std::uint64_t expect =
            (static_cast<std::uint64_t>(kBlocks) << 16) + j;
        ok = peek(*sink, 1, bdst + 4 * j) == expect;
    }

    std::printf("two jobs timesharing a 2-node machine "
                "(quantum %.0f us)\n",
                static_cast<double>(cfg.kernel.quantum) / ONE_US);
    std::printf("  ping-pong rounds completed : %d\n", kRounds);
    stats::Snapshot snap = sys.snapshot();
    std::uint64_t switches0 = snap.at("node0.kernel.contextSwitches");
    std::uint64_t switches1 = snap.at("node1.kernel.contextSwitches");
    std::printf("  bulk blocks transferred    : %llu\n",
                (unsigned long long)snap.at("node0.ni.dma.transfers"));
    std::printf("  context switches node0/1   : %llu / %llu\n",
                (unsigned long long)switches0,
                (unsigned long long)switches1);
    std::printf("  simulated time             : %.2f ms\n",
                static_cast<double>(sys.curTick()) / ONE_MS);

    ok = ok && switches0 >= 4 && switches1 >= 4;
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
