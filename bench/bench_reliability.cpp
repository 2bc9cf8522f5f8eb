/**
 * @file
 * Reliability-layer cost: automatic-update throughput and delivered
 * latency with the ACK/NACK retransmission protocol enabled, swept
 * over link loss rates (0%, 0.1%, 1%, 5% drops). Shows what the
 * protocol costs on a clean fabric (sequence/ACK overhead only) and
 * how gracefully goodput degrades as the mesh gets lossy -- every run
 * still delivers every word exactly once, checked in-bench.
 */

#include "bench_util.hh"
#include "experiments.hh"

namespace shrimp
{
namespace
{

/**
 * Stream @p words distinct single-write updates through one mapped
 * page with the given per-link drop probability (per mille) and
 * verify the destination page converged to a bit-exact copy.
 */
void
lossyStream(claims::Metrics &m, unsigned drop_per_mille, unsigned words)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.reliability.enabled = true;
    cfg.linkFaults.dropProb = drop_per_mille / 1000.0;
    cfg.linkFaults.seed = 0xbadf00d + drop_per_mille;
    bench_util::StoreScenario s(cfg, 1, 1, UpdateMode::AUTO_SINGLE);
    // The long tail lets the last retransmissions out.
    s.run(s.storeLoop(words, 4), 500 * ONE_MS);

    stats::Snapshot snap = s.sys.snapshot();
    m["retransmits"] = snap.at("node0.ni.retx.retxTimeout") +
                       snap.at("node0.ni.retx.retxNack");
    m["acks"] = snap.at("node1.ni.relAcksSent");
    m["nacks"] = snap.at("node1.ni.relNacksSent");

    bool exact = true;
    for (unsigned i = 0; i < words; ++i) {
        if (bench_util::peek32(s.sys, 1, *s.b, s.dst + 4 * i) != i)
            exact = false;
    }
    m["all_exact"] = exact;
    m["stream_us"] = static_cast<double>(s.delivered.span()) / ONE_US;
    m["goodput_MBps"] = s.delivered.mbps();
}

} // namespace

void
experiments::reliability(claims::Rows &rows)
{
    // Per-link drop rate in per mille: a clean fabric (protocol
    // overhead only), then 0.1%, 1% and 5% loss. Every word must still
    // arrive exactly once, in order.
    for (unsigned per_mille : {0u, 1u, 10u, 50u}) {
        lossyStream(claims::newRow(rows, "Reliability_LossRateSweep/" +
                                             std::to_string(per_mille)),
                    per_mille, 1000);
    }
}

} // namespace shrimp
