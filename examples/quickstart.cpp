/**
 * @file
 * Quickstart: the smallest complete SHRIMP program.
 *
 * Builds a two-node machine, maps a page from a sender process to a
 * receiver process (the paper's map() separation of protection from
 * data movement), then communicates twice:
 *
 *  1. automatic update -- ordinary stores to the mapped page
 *     propagate to the remote memory with no further software;
 *  2. deliberate update -- an explicit user-level block transfer
 *     through the VM-mapped command page (one locked CMPXCHG).
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "core/system.hh"
#include "msg/deliberate.hh"

using namespace shrimp;

int
main()
{
    // A 1x2 mesh with the paper's default hardware parameters.
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    ShrimpSystem sys(cfg);

    // One process per node.
    Process *sender = sys.kernel(0).createProcess("sender");
    Process *receiver = sys.kernel(1).createProcess("receiver");

    // User buffers: one page mapped for automatic update, one for
    // deliberate update.
    Addr auto_src = sender->allocate(1);
    Addr auto_dst = receiver->allocate(1);
    Addr blk_src = sender->allocate(1);
    Addr blk_dst = receiver->allocate(1);

    // map(): protection is checked here, once; everything after this
    // happens at user level with zero kernel involvement.
    sys.kernel(0).mapDirect(*sender, auto_src, 1, sys.kernel(1),
                            *receiver, auto_dst,
                            UpdateMode::AUTO_SINGLE);
    sys.kernel(0).mapDirect(*sender, blk_src, 1, sys.kernel(1),
                            *receiver, blk_dst,
                            UpdateMode::DELIBERATE);
    Addr cmd = sys.kernel(0).mapCommandPages(*sender, blk_src, 1);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(blk_src);

    // Sender program: a store IS a message; then a 64-word block send.
    Program ps("sender");
    ps.movi(R1, auto_src);
    ps.sti(R1, 0, 42, 4);               // automatic update: done!
    ps.movi(R1, blk_src);
    for (int j = 0; j < 64; ++j)        // fill the block locally
        ps.sti(R1, 4 * j, 1000 + j, 4);
    ps.movi(R3, blk_src);               // deliberate send macro
    ps.movi(R1, 64 * 4);
    msg::emitDeliberateSendSingle(ps, cmd_delta, "send", "multi");
    ps.halt();
    ps.label("multi");
    ps.halt();
    ps.finalize();
    sys.kernel(0).loadAndReady(sender[0],
                               std::make_shared<Program>(std::move(ps)));

    // Receiver: spin until both messages are visible in local memory.
    Program pr("receiver");
    pr.movi(R1, auto_dst);
    pr.label("wait1");
    pr.ld(R2, R1, 0, 4);
    pr.cmpi(R2, 42);
    pr.jnz("wait1");
    pr.movi(R1, blk_dst);
    pr.label("wait2");
    pr.ld(R2, R1, 63 * 4, 4);
    pr.cmpi(R2, 1063);
    pr.jnz("wait2");
    pr.halt();
    pr.finalize();
    sys.kernel(1).loadAndReady(receiver[0],
                               std::make_shared<Program>(std::move(pr)));

    sys.startAll();
    bool done = sys.runUntilAllExited();
    sys.runFor(ONE_MS);

    auto peek = [&](Process &proc, NodeId node, Addr va) {
        Translation t = proc.space().translate(va, false);
        return sys.node(node).mem.readInt(t.paddr, 4);
    };

    std::printf("quickstart on a %ux%u SHRIMP machine\n",
                cfg.meshWidth, cfg.meshHeight);
    std::printf("  automatic update : dst[0]  = %llu (expect 42)\n",
                (unsigned long long)peek(*receiver, 1, auto_dst));
    std::printf("  deliberate update: dst[63] = %llu (expect 1063)\n",
                (unsigned long long)peek(*receiver, 1,
                                         blk_dst + 63 * 4));
    std::printf("  packets sent by node0     = %llu\n",
                (unsigned long long)sys.snapshot().at("node0.ni.pktsSent"));
    std::printf("  simulated time            = %.2f us\n",
                static_cast<double>(sys.curTick()) / ONE_US);

    bool ok = done && peek(*receiver, 1, auto_dst) == 42 &&
              peek(*receiver, 1, blk_dst + 63 * 4) == 1063;
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
