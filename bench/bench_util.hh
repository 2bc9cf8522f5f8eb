/**
 * @file
 * Shared scenarios for the experiments (bench/bench_*.cpp) and
 * tools/shrimp_explore. A measurement writes each number it takes
 * into the claims::Metrics of its row, under the name the claims
 * table and the explorer read.
 */

#ifndef SHRIMP_BENCH_BENCH_UTIL_HH
#define SHRIMP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <fstream>
#include <memory>

#include "claims.hh"
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

/** Every packet delivered by the NIs it is attached to. */
struct Deliveries
{
    Deliveries() = default;
    // The NIs it is attached to hold its address.
    Deliveries(const Deliveries &) = delete;
    Deliveries &operator=(const Deliveries &) = delete;

    Tick firstInject = MAX_TICK;
    Tick lastDeliver = 0;
    std::uint64_t payload = 0;      //!< payload bytes
    std::uint64_t wire = 0;         //!< wire bytes, headers and CRC too
    std::uint64_t packets = 0;

    void
    attach(ShrimpNi &ni)
    {
        ni.onDelivered = [this](const NetPacket &pkt, Tick when) {
            firstInject = std::min(firstInject, pkt.injectedAt);
            lastDeliver = when;
            payload += pkt.payload.size();
            wire += pkt.wireBytes();
            ++packets;
        };
    }

    /** Ticks from the first injection to the last delivery. */
    Tick
    span() const
    {
        return lastDeliver > firstInject ? lastDeliver - firstInject : 0;
    }

    /** Payload MB/s from the first injection to the last delivery. */
    double
    mbps() const
    {
        if (span() == 0)
            return 0.0;
        return payload / (static_cast<double>(span()) / ONE_SEC) / 1e6;
    }
};

/**
 * The two-node store scenario behind H1-H4, A1, A2, R1 and
 * `shrimp_explore stats`: process `a` on node 0 with @p pages pages
 * mapped in @p mode onto process `b` on node @p dst_node, whose
 * deliveries are counted in @c delivered.
 */
struct StoreScenario
{
    StoreScenario(const SystemConfig &cfg, NodeId dst_node,
                  std::size_t pages, UpdateMode mode)
        : sys(cfg), dstNode(dst_node)
    {
        a = sys.kernel(0).createProcess("a");
        b = sys.kernel(dst_node).createProcess("b");
        src = a->allocate(pages);
        dst = b->allocate(pages);
        sys.kernel(0).mapDirect(*a, src, pages, sys.kernel(dst_node), *b,
                                dst, mode);
        delivered.attach(sys.node(dst_node).ni);
    }

    /** `a`'s store loop: the values 0, 1, ... @p stores - 1 stored
     *  from `src` on, @p stride bytes apart (0: all to one word). */
    Program
    storeLoop(unsigned stores, Addr stride) const
    {
        Program p("a");
        p.movi(R1, src);
        p.movi(R2, 0);
        p.movi(R3, stores);
        p.label("loop");
        p.st(R1, 0, R2, 4);
        if (stride)
            p.addi(R1, stride);
        p.addi(R2, 1);
        p.cmp(R2, R3);
        p.jl("loop");
        p.halt();
        return p;
    }

    /** Run @p prog as `a` (`b` only halts) until both exit, then for
     *  @p tail more. */
    void
    run(Program &&prog, Tick tail)
    {
        load(sys.kernel(0), *a, std::move(prog));
        Program pb("b");
        pb.halt();
        load(sys.kernel(dstNode), *b, std::move(pb));
        sys.startAll();
        sys.runUntilAllExited(30 * ONE_SEC, 2'000'000'000);
        sys.runFor(tail);
    }

    /** Write the packet trace and the stats JSON where asked. */
    void
    writeFiles(const char *trace_path, const char *stats_json_path)
    {
        if (trace_path)
            sys.tracer()->writeFile(trace_path);
        if (stats_json_path) {
            std::ofstream out(stats_json_path);
            sys.dumpStatsJson(out);
        }
    }

    Deliveries delivered;   //!< before sys: it outlives the NI's hook
    ShrimpSystem sys;
    NodeId dstNode;
    Process *a = nullptr;
    Process *b = nullptr;
    Addr src = 0;
    Addr dst = 0;
};

/**
 * H1/H2: single-write automatic-update latency (store to remote
 * memory) between node 0 and a node @p hops away on a 4x4 mesh, as
 * sim_latency_us in simulated microseconds.
 *
 * If @p trace_path / @p stats_json_path are given, the run records a
 * packet-lifecycle trace / a machine-readable stats dump and writes
 * them there (used by tools/shrimp_explore --trace-out/--stats-json).
 */
inline void
measureSingleWriteLatency(claims::Metrics &m, bool next_gen,
                          unsigned hops,
                          const char *trace_path = nullptr,
                          const char *stats_json_path = nullptr)
{
    SystemConfig cfg = SystemConfig::paper16();
    cfg.ni.nextGenDatapath = next_gen;
    cfg.traceEnabled = trace_path != nullptr;
    // Row-major 4x4: walk east then south to get the hop count.
    unsigned x = hops < 4 ? hops : 3;
    unsigned y = hops < 4 ? 0 : hops - 3;
    StoreScenario s(cfg, static_cast<NodeId>(y * cfg.meshWidth + x), 1,
                    UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, s.src);
    pa.sti(R1, 0, 1, 4);
    pa.halt();
    s.run(std::move(pa), ONE_MS);
    s.writeFiles(trace_path, stats_json_path);
    m["sim_latency_us"] =
        static_cast<double>(s.delivered.span()) / ONE_US;
}

/**
 * H3/H4: peak deliberate-update bandwidth, measured by streaming
 * @p total_bytes (page multiple) through the user-level multi-page
 * send macro: sim_MBps from first injection to last delivery, and
 * the payload_bytes and packets delivered. The paths are as for
 * measureSingleWriteLatency.
 */
inline void
measureDeliberateBandwidth(claims::Metrics &m, bool next_gen,
                           Addr total_bytes,
                           const char *trace_path = nullptr,
                           const char *stats_json_path = nullptr)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.nextGenDatapath = next_gen;
    cfg.traceEnabled = trace_path != nullptr;
    std::size_t npages = total_bytes / PAGE_SIZE;
    StoreScenario s(cfg, 1, npages, UpdateMode::DELIBERATE);
    Addr cmd = s.sys.kernel(0).mapCommandPages(*s.a, s.src, npages);
    std::int64_t cmd_delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(s.src);

    // Fill the source region (host side; the fill is not measured).
    for (Addr off = 0; off < total_bytes; off += 4) {
        Translation t = s.a->space().translate(s.src + off, true);
        s.sys.node(0).mem.writeInt(t.paddr, off / 4 + 1, 4);
    }

    Program pa("a");
    pa.movi(R3, s.src);
    pa.movi(R1, total_bytes);
    msg::emitDeliberateSendSingle(pa, cmd_delta, "send", "multi");
    pa.label("resume");
    pa.label("wait");
    msg::emitDeliberateCheck(pa);
    pa.jnz("wait");
    pa.halt();
    msg::emitDeliberateSendMulti(pa, cmd_delta, "multi", "resume");
    s.run(std::move(pa), 50 * ONE_MS);
    s.writeFiles(trace_path, stats_json_path);
    m["sim_MBps"] = s.delivered.mbps();
    m["payload_bytes"] = s.delivered.payload;
    m["packets"] = s.delivered.packets;
}

} // namespace bench_util
} // namespace shrimp

#endif // SHRIMP_BENCH_BENCH_UTIL_HH
