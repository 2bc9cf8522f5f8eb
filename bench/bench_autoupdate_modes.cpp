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
 * over total wire bytes), the effective payload bandwidth and the
 * stores merged into a pending packet. The
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

/** Push @p stores consecutive word stores through @p mode. */
void
storeStream(claims::Metrics &m, UpdateMode mode, unsigned stores,
            Tick merge_timeout)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.mergeTimeout = merge_timeout;
    bench_util::StoreScenario s(cfg, 1,
                                (stores * 4 + PAGE_SIZE - 1) / PAGE_SIZE,
                                mode);
    s.run(s.storeLoop(stores, 4), 50 * ONE_MS);

    const bench_util::Deliveries &d = s.delivered;
    m["packets"] = d.packets;
    m["wire_efficiency"] =
        d.wire ? static_cast<double>(d.payload) / d.wire : 0;
    m["payload_MBps"] = d.mbps();
    m["merged_writes"] = s.sys.snapshot().at("node0.ni.mergedWrites");
}

} // namespace

void
experiments::autoupdateModes(claims::Rows &rows)
{
    // One packet per store: low latency, heavy header overhead.
    for (unsigned stores : {256u, 1024u}) {
        storeStream(claims::newRow(rows, "AutoUpdate_SingleWrite/" +
                                             std::to_string(stores)),
                    UpdateMode::AUTO_SINGLE, stores, ONE_US);
    }
    // Consecutive stores merge: efficient bandwidth use.
    for (unsigned stores : {256u, 1024u}) {
        storeStream(claims::newRow(rows, "AutoUpdate_BlockedWrite/" +
                                             std::to_string(stores)),
                    UpdateMode::AUTO_BLOCK, stores, ONE_US);
    }
    // Store spacing is ~60-100 ns; windows below that stop merging.
    for (Tick ns : {25, 100, 400, 1600}) {
        storeStream(claims::newRow(rows, "AutoUpdate_MergeWindowSweep/" +
                                             std::to_string(ns)),
                    UpdateMode::AUTO_BLOCK, 512, ns * ONE_NS);
    }
}

} // namespace shrimp
