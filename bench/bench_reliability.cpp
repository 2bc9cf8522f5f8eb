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

struct ReliabilityResult
{
    double goodputMBps = 0;
    double totalUs = 0;
    double retransmits = 0;
    double acks = 0;
    double nacks = 0;
    double allExact = 0;
};

/**
 * Stream @p words distinct single-write updates through one mapped
 * page with the given per-link drop probability (per mille) and
 * verify the destination page converged to a bit-exact copy.
 */
ReliabilityResult
runLossSweep(unsigned drop_per_mille, unsigned words)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.reliability.enabled = true;
    cfg.linkFaults.dropProb = drop_per_mille / 1000.0;
    cfg.linkFaults.seed = 0xbadf00d + drop_per_mille;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    Tick first = MAX_TICK, last = 0;
    std::uint64_t payload = 0;
    sys.node(1).ni.onDelivered = [&](const NetPacket &pkt, Tick when) {
        if (pkt.injectedAt < first)
            first = pkt.injectedAt;
        last = when;
        payload += pkt.payload.size();
    };

    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, 0);
    pa.movi(R3, words);
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
    sys.runUntilAllExited(30 * ONE_SEC, 2'000'000'000);
    sys.runFor(500 * ONE_MS);   // let the tail retransmit out

    stats::Snapshot snap = sys.snapshot();
    ReliabilityResult r;
    r.retransmits =
        static_cast<double>(snap.at("node0.ni.retx.retxTimeout") +
                            snap.at("node0.ni.retx.retxNack"));
    r.acks = static_cast<double>(snap.at("node1.ni.relAcksSent"));
    r.nacks = static_cast<double>(snap.at("node1.ni.relNacksSent"));

    bool exact = true;
    for (unsigned i = 0; i < words; ++i) {
        if (bench_util::peek32(sys, 1, *b, dst + 4 * i) != i)
            exact = false;
    }
    r.allExact = exact ? 1 : 0;

    if (last > first) {
        r.totalUs = static_cast<double>(last - first) / ONE_US;
        r.goodputMBps =
            payload /
            (static_cast<double>(last - first) / ONE_SEC) / 1e6;
    }
    return r;
}

} // namespace

void
experiments::reliability(claims::Rows &rows)
{
    // Per-link drop rate in per mille: a clean fabric (protocol
    // overhead only), then 0.1%, 1% and 5% loss. Every word must still
    // arrive exactly once, in order.
    for (unsigned per_mille : {0u, 1u, 10u, 50u}) {
        ReliabilityResult r = runLossSweep(per_mille, 1000);
        rows.push_back(
            {"Reliability_LossRateSweep/" + std::to_string(per_mille),
             {{"goodput_MBps", r.goodputMBps},
              {"stream_us", r.totalUs},
              {"retransmits", r.retransmits},
              {"acks", r.acks},
              {"nacks", r.nacks},
              {"all_exact", r.allExact}}});
    }
}

} // namespace shrimp
