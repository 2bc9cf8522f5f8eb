/**
 * @file
 * Shared scenario builders for the experiments (bench/bench_*.cpp)
 * and tools/shrimp_explore. Each returns simulated metrics (latency,
 * bandwidth) from a fresh ShrimpSystem.
 */

#ifndef SHRIMP_BENCH_BENCH_UTIL_HH
#define SHRIMP_BENCH_BENCH_UTIL_HH

#include <fstream>
#include <memory>

#include "core/system.hh"
#include "msg/deliberate.hh"

namespace shrimp
{
namespace bench_util
{

/** Finalize + load helper. */
inline void
load(Kernel &kernel, Process &proc, Program &&prog)
{
    prog.finalize();
    kernel.loadAndReady(proc,
                        std::make_shared<Program>(std::move(prog)));
}

/** Host read of a 32-bit word in a process's virtual memory. */
inline std::uint32_t
peek32(ShrimpSystem &sys, NodeId node, Process &proc, Addr vaddr)
{
    Translation t = proc.space().translate(vaddr, false);
    if (!t.ok())
        return 0xdead'dead;
    return static_cast<std::uint32_t>(
        sys.node(node).mem.readInt(t.paddr, 4));
}

/**
 * H1/H2: single-write automatic-update latency (store to remote
 * memory) between node 0 and a node @p hops away on a 4x4 mesh.
 *
 * If @p trace_path / @p stats_json_path are given, the run records a
 * packet-lifecycle trace / a machine-readable stats dump and writes
 * them there (used by tools/shrimp_explore --trace-out/--stats-json).
 *
 * @return latency in simulated microseconds.
 */
inline double
measureSingleWriteLatencyUs(bool next_gen, unsigned hops,
                            const char *trace_path = nullptr,
                            const char *stats_json_path = nullptr)
{
    SystemConfig cfg = SystemConfig::paper16();
    cfg.ni.nextGenDatapath = next_gen;
    cfg.traceEnabled = trace_path != nullptr;
    ShrimpSystem sys(cfg);

    // Row-major 4x4: walk east then south to get the hop count.
    unsigned x = hops < 4 ? hops : 3;
    unsigned y = hops < 4 ? 0 : hops - 3;
    NodeId dst_node = sys.backplane().nodeAt(x, y);

    Process *a = sys.kernel(0).createProcess("src");
    Process *b = sys.kernel(dst_node).createProcess("dst");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(dst_node), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    Tick latency = 0;
    sys.node(dst_node).ni.onDelivered =
        [&](const NetPacket &pkt, Tick when) {
            latency = when - pkt.injectedAt;
        };

    Program pa("src");
    pa.movi(R1, src);
    pa.sti(R1, 0, 1, 4);
    pa.halt();
    load(sys.kernel(0), *a, std::move(pa));
    Program pb("dst");
    pb.halt();
    load(sys.kernel(dst_node), *b, std::move(pb));

    sys.startAll();
    sys.runUntilAllExited();
    sys.runFor(ONE_MS);
    if (trace_path)
        sys.tracer()->writeFile(trace_path);
    if (stats_json_path) {
        std::ofstream out(stats_json_path);
        sys.dumpStatsJson(out);
    }
    return static_cast<double>(latency) / ONE_US;
}

/** Result of a bulk-transfer bandwidth run. */
struct BandwidthResult
{
    double mbps = 0.0;          //!< payload MB/s, injection to drain
    double totalUs = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
};

/**
 * H3/H4: peak deliberate-update bandwidth, measured by streaming
 * @p total_bytes (page multiple) through the user-level multi-page
 * send macro and timing first-injection to last-delivery.
 */
inline BandwidthResult
measureDeliberateBandwidth(bool next_gen, Addr total_bytes,
                           const char *trace_path = nullptr,
                           const char *stats_json_path = nullptr)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.nextGenDatapath = next_gen;
    cfg.traceEnabled = trace_path != nullptr;
    ShrimpSystem sys(cfg);

    std::size_t npages = total_bytes / PAGE_SIZE;
    Process *a = sys.kernel(0).createProcess("src");
    Process *b = sys.kernel(1).createProcess("dst");
    Addr src = a->allocate(npages);
    Addr dst = b->allocate(npages);
    sys.kernel(0).mapDirect(*a, src, npages, sys.kernel(1), *b, dst,
                            UpdateMode::DELIBERATE);
    Addr cmd = sys.kernel(0).mapCommandPages(*a, src, npages);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(src);

    // Fill the source region (host side; the fill is not measured).
    for (Addr off = 0; off < total_bytes; off += 4) {
        Translation t = a->space().translate(src + off, true);
        sys.node(0).mem.writeInt(t.paddr, off / 4 + 1, 4);
    }

    Tick first_inject = MAX_TICK;
    Tick last_deliver = 0;
    std::uint64_t delivered_bytes = 0, delivered_pkts = 0;
    sys.node(1).ni.onDelivered = [&](const NetPacket &pkt, Tick when) {
        if (pkt.injectedAt < first_inject)
            first_inject = pkt.injectedAt;
        last_deliver = when;
        delivered_bytes += pkt.payload.size();
        ++delivered_pkts;
    };

    Program pa("src");
    pa.movi(R3, src);
    pa.movi(R1, total_bytes);
    msg::emitDeliberateSendSingle(pa, cmd_delta, "send", "multi");
    pa.label("resume");
    pa.label("wait");
    msg::emitDeliberateCheck(pa);
    pa.jnz("wait");
    pa.halt();
    msg::emitDeliberateSendMulti(pa, cmd_delta, "multi", "resume");
    load(sys.kernel(0), *a, std::move(pa));
    Program pb("dst");
    pb.halt();
    load(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    sys.runUntilAllExited(10 * ONE_SEC, 2'000'000'000);
    sys.runFor(50 * ONE_MS);

    if (trace_path)
        sys.tracer()->writeFile(trace_path);
    if (stats_json_path) {
        std::ofstream out(stats_json_path);
        sys.dumpStatsJson(out);
    }

    BandwidthResult r;
    r.bytes = delivered_bytes;
    r.packets = delivered_pkts;
    if (last_deliver > first_inject) {
        double secs =
            static_cast<double>(last_deliver - first_inject) / ONE_SEC;
        r.mbps = delivered_bytes / secs / 1e6;
        r.totalUs =
            static_cast<double>(last_deliver - first_inject) / ONE_US;
    }
    return r;
}

} // namespace bench_util
} // namespace shrimp

#endif // SHRIMP_BENCH_BENCH_UTIL_HH
