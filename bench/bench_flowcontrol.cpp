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

struct FlowResult
{
    double stalls = 0;
    double stallUs = 0;
    double deliveredMBps = 0;
    double allDelivered = 0;
    double peakInFifo = 0;
};

FlowResult
runOverload(Addr out_high, Addr in_high, unsigned stores)
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

    // Store storm to one word: every store is a packet.
    Program pa("a");
    pa.movi(R1, src);
    pa.movi(R2, 0);
    pa.movi(R3, stores);
    pa.label("loop");
    pa.st(R1, 0, R2, 4);
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
    sys.runFor(200 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    FlowResult r;
    r.stalls = static_cast<double>(snap.at("node0.kernel.fifoStalls"));
    r.stallUs =
        static_cast<double>(snap.at("node0.kernel.fifoStallTicks")) /
        ONE_US;
    r.allDelivered = snap.at("node1.ni.pktsDelivered") == stores ? 1 : 0;
    if (last > first) {
        r.deliveredMBps =
            payload /
            (static_cast<double>(last - first) / ONE_SEC) / 1e6;
    }
    return r;
}

void
addRow(claims::Rows &rows, std::string name, const FlowResult &r)
{
    rows.push_back({std::move(name),
                    {{"cpu_stalls", r.stalls},
                     {"stall_us", r.stallUs},
                     {"delivered_MBps", r.deliveredMBps},
                     {"all_delivered", r.allDelivered}}});
}

} // namespace

void
experiments::flowcontrol(claims::Rows &rows)
{
    // Outgoing FIFO threshold: the CPU is interrupted and waits until
    // the FIFO drains.
    for (Addr high : {1024, 2048, 4096, 8192}) {
        addRow(rows,
               "FlowControl_OutFifoThresholdSweep/" + std::to_string(high),
               runOverload(high, 12 * 1024, 2000));
    }
    // Incoming FIFO stop threshold: the NIC refuses packets and the
    // mesh backpressures the sender.
    for (Addr high : {1024, 4096, 12288}) {
        addRow(rows,
               "FlowControl_InFifoThresholdSweep/" + std::to_string(high),
               runOverload(4 * 1024, high, 2000));
    }
}

} // namespace shrimp
