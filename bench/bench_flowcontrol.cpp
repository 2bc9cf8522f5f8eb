/**
 * @file
 * Ablation A2: the FIFO flow-control mechanism of Section 4.
 *
 * A fast automatic-update producer overruns the EISA-limited receive
 * path: the incoming FIFO crosses its stop threshold, the receiving
 * NIC stops accepting packets, backpressure fills router buffers
 * back to the sender, the outgoing FIFO crosses its threshold, and
 * the CPU is interrupted and stalls until it drains -- the complete
 * end-to-end chain the paper describes. Nothing is ever dropped.
 *
 * The sweep over outgoing-FIFO thresholds shows the stall/throughput
 * tradeoff; the incoming-threshold sweep shows backpressure kicking
 * in earlier or later in the chain.
 */

#include "bench_util.hh"
#include "experiments.hh"

namespace shrimp
{
namespace
{

/** A store storm of @p stores packets to one word through FIFOs that
 *  stop at @p out_high and @p in_high bytes. */
void
storeStorm(claims::Metrics &m, Addr out_high, Addr in_high,
           unsigned stores)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.outFifo.capacityBytes = 16 * 1024;
    cfg.ni.outFifo.highThresholdBytes = out_high;
    cfg.ni.outFifo.lowThresholdBytes = out_high / 4;
    cfg.ni.inFifo.capacityBytes = 16 * 1024;
    cfg.ni.inFifo.highThresholdBytes = in_high;
    cfg.ni.inFifo.lowThresholdBytes = in_high / 2;
    bench_util::StoreScenario s(cfg, 1, 1, UpdateMode::AUTO_SINGLE);
    s.run(s.storeLoop(stores, 0), 200 * ONE_MS);

    stats::Snapshot snap = s.sys.snapshot();
    m["cpu_stalls"] = snap.at("node0.kernel.fifoStalls");
    m["stall_us"] =
        static_cast<double>(snap.at("node0.kernel.fifoStallTicks")) /
        ONE_US;
    m["delivered_MBps"] = s.delivered.mbps();
    m["all_delivered"] = snap.at("node1.ni.pktsDelivered") == stores;
}

} // namespace

void
experiments::flowcontrol(claims::Rows &rows)
{
    // Outgoing FIFO threshold: the CPU is interrupted and waits until
    // the FIFO drains.
    for (Addr high : {1024, 2048, 4096, 8192}) {
        storeStorm(claims::newRow(rows, "FlowControl_OutFifoThresholdSweep/" +
                                            std::to_string(high)),
                   high, 12 * 1024, 2000);
    }
    // Incoming FIFO stop threshold: the NIC refuses packets and the
    // mesh backpressures the sender.
    for (Addr high : {1024, 4096, 12288}) {
        storeStorm(claims::newRow(rows, "FlowControl_InFifoThresholdSweep/" +
                                            std::to_string(high)),
                   4 * 1024, high, 2000);
    }
}

} // namespace shrimp
