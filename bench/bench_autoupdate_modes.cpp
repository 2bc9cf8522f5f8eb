/**
 * @file
 * Ablation A1: single-write versus blocked-write automatic update
 * (Section 4.1). The two modes have identical semantics; single-write
 * is "optimized for low overhead" (each store leaves immediately),
 * blocked-write "for efficient network bandwidth usage" (consecutive
 * stores within the merge window coalesce into one packet, amortizing
 * the 18-byte header+CRC overhead).
 *
 * A stream of consecutive word stores is pushed through each mode;
 * the rows report packets on the wire, wire efficiency (payload bytes
 * over total wire bytes), and the effective payload bandwidth. The
 * merge-window sweep shows blocked-write degrading back to
 * single-write behaviour as the window shrinks below the store
 * spacing.
 */

#include "bench_util.hh"
#include "experiments.hh"

namespace shrimp
{
namespace
{

struct ModeResult
{
    double packets = 0;
    double wireEfficiency = 0;
    double payloadMBps = 0;
    double mergedWrites = 0;
};

ModeResult
runStoreStream(UpdateMode mode, unsigned stores, Tick merge_timeout)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.mergeTimeout = merge_timeout;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    std::size_t pages = (stores * 4 + PAGE_SIZE - 1) / PAGE_SIZE;
    Addr src = a->allocate(pages);
    Addr dst = b->allocate(pages);
    sys.kernel(0).mapDirect(*a, src, pages, sys.kernel(1), *b, dst,
                            mode);

    Tick first_inject = MAX_TICK, last_deliver = 0;
    std::uint64_t payload = 0, wire = 0, packets = 0;
    sys.node(1).ni.onDelivered = [&](const NetPacket &pkt, Tick when) {
        if (pkt.injectedAt < first_inject)
            first_inject = pkt.injectedAt;
        last_deliver = when;
        payload += pkt.payload.size();
        wire += pkt.wireBytes();
        ++packets;
    };

    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, 0);
    pa.movi(R3, stores);
    pa.label("loop");
    pa.st(R1, 0, R2, 4);
    pa.addi(R1, 4);
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("loop");
    pa.halt();
    bench_util::load(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    bench_util::load(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    sys.runUntilAllExited(10 * ONE_SEC, 2'000'000'000);
    sys.runFor(50 * ONE_MS);

    ModeResult r;
    r.packets = static_cast<double>(packets);
    r.wireEfficiency = wire ? static_cast<double>(payload) / wire : 0;
    if (last_deliver > first_inject) {
        r.payloadMBps = payload /
                        (static_cast<double>(last_deliver -
                                             first_inject) /
                         ONE_SEC) /
                        1e6;
    }
    r.mergedWrites =
        static_cast<double>(sys.snapshot().at("node0.ni.mergedWrites"));
    return r;
}

} // namespace

void
experiments::autoupdateModes(claims::Rows &rows)
{
    for (unsigned stores : {256u, 1024u}) {
        ModeResult r =
            runStoreStream(UpdateMode::AUTO_SINGLE, stores, ONE_US);
        // One packet per store: low latency, heavy header overhead.
        rows.push_back({"AutoUpdate_SingleWrite/" + std::to_string(stores),
                        {{"packets", r.packets},
                         {"wire_efficiency", r.wireEfficiency},
                         {"payload_MBps", r.payloadMBps}}});
    }
    for (unsigned stores : {256u, 1024u}) {
        ModeResult r =
            runStoreStream(UpdateMode::AUTO_BLOCK, stores, ONE_US);
        // Consecutive stores merge: efficient bandwidth use.
        rows.push_back({"AutoUpdate_BlockedWrite/" + std::to_string(stores),
                        {{"packets", r.packets},
                         {"wire_efficiency", r.wireEfficiency},
                         {"payload_MBps", r.payloadMBps},
                         {"merged_writes", r.mergedWrites}}});
    }
    // Store spacing is ~60-100 ns; windows below that stop merging.
    for (Tick ns : {25, 100, 400, 1600}) {
        ModeResult r =
            runStoreStream(UpdateMode::AUTO_BLOCK, 512, ns * ONE_NS);
        rows.push_back(
            {"AutoUpdate_MergeWindowSweep/" + std::to_string(ns),
             {{"packets", r.packets},
              {"wire_efficiency", r.wireEfficiency}}});
    }
}

} // namespace shrimp
