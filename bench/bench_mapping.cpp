/**
 * @file
 * Ablation A3: the cost of the rare path -- map()/unmap() and the
 * NIPT consistency machinery of Section 4.4.
 *
 * The paper's core argument is asymmetry: communication (the common
 * case) costs a few user instructions, while mapping (the rare case)
 * pays kernel protection checks and a kernel-to-kernel round trip per
 * page. These experiments quantify the rare path:
 *
 *  - map() syscall latency versus page count (one in-band RPC per
 *    page over the kernel channel);
 *  - eviction shootdown latency versus the number of source nodes
 *    mapping into the page (INVALIDATE policy);
 *  - fault-driven remap latency (store to an invalidated mapping).
 */

#include "bench_util.hh"
#include "experiments.hh"
#include "os/map_manager.hh"

namespace shrimp
{
namespace
{

/** Simulated microseconds for a MAP syscall of @p npages. */
double
measureMapSyscallUs(unsigned npages)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    ShrimpSystem sys(cfg);
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(npages);
    Addr dst = b->allocate(npages);
    Addr args = a->allocate(1);
    Addr out = a->allocate(1);

    auto poke = [&](Addr va, std::uint32_t v) {
        Translation t = a->space().translate(va, true);
        sys.node(0).mem.writeInt(t.paddr, v, 4);
    };
    poke(args + 0, static_cast<std::uint32_t>(src));
    poke(args + 4, npages);
    poke(args + 8, 1);
    poke(args + 12, b->pid());
    poke(args + 16, static_cast<std::uint32_t>(dst));
    poke(args + 20,
         static_cast<std::uint32_t>(UpdateMode::AUTO_SINGLE));
    poke(args + 24, 0);

    // The map's cost is the time to process exit minus that of the
    // same program with the MAP replaced by GETPID, run in a fresh
    // system below.
    auto run_with = [&](bool with_map) {
        Program p("a");
        p.movi(R1, args);
        p.syscall(with_map ? sys::MAP : sys::GETPID);
        p.movi(R1, out);
        p.st(R1, 0, R0, 4);
        p.halt();
        return p;
    };

    Program pb("b");
    pb.halt();
    bench_util::load(sys.kernel(1), *b, std::move(pb));
    Program pa = run_with(true);
    bench_util::load(sys.kernel(0), *a, std::move(pa));
    sys.startAll();
    sys.runUntilAllExited();
    double with_map_us = static_cast<double>(sys.curTick()) / ONE_US;

    // Baseline run in a fresh system.
    ShrimpSystem sys2(cfg);
    Process *a2 = sys2.kernel(0).createProcess("a");
    Process *b2 = sys2.kernel(1).createProcess("b");
    a2->allocate(npages);
    b2->allocate(npages);
    Addr args2 = a2->allocate(1);
    Addr out2 = a2->allocate(1);
    Program p2("a");
    p2.movi(R1, args2);
    p2.syscall(sys::GETPID);
    p2.movi(R1, out2);
    p2.st(R1, 0, R0, 4);
    p2.halt();
    bench_util::load(sys2.kernel(0), *a2, std::move(p2));
    Program pb2("b");
    pb2.halt();
    bench_util::load(sys2.kernel(1), *b2, std::move(pb2));
    sys2.startAll();
    sys2.runUntilAllExited();
    double base_us = static_cast<double>(sys2.curTick()) / ONE_US;

    return with_map_us - base_us;
}

/** Shootdown latency versus number of mapping source nodes. */
double
measureShootdownUs(unsigned sources)
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 2;
    ShrimpSystem sys(cfg);
    NodeId victim = 7;
    sys.kernel(victim).setConsistencyPolicy(
        ConsistencyPolicy::INVALIDATE);

    Process *v = sys.kernel(victim).createProcess("victim");
    Addr dst = v->allocate(1);
    Program pv("victim");
    pv.halt();
    bench_util::load(sys.kernel(victim), *v, std::move(pv));

    for (unsigned i = 0; i < sources; ++i) {
        Process *p = sys.kernel(i).createProcess("src");
        Addr src = p->allocate(1);
        sys.kernel(i).mapDirect(*p, src, 1, sys.kernel(victim), *v,
                                dst, UpdateMode::AUTO_SINGLE);
        Program pp("src");
        pp.halt();
        bench_util::load(sys.kernel(i), *p, std::move(pp));
    }

    Tick start = 0, end = 0;
    sys.eventQueue().scheduleFn(
        [&] {
            start = sys.curTick();
            sys.kernel(victim).evictUserPage(
                *v, dst, [&](bool) { end = sys.curTick(); });
        },
        10 * ONE_US);

    sys.startAll();
    sys.runUntilAllExited();
    sys.runFor(20 * ONE_MS);
    return end > start ? static_cast<double>(end - start) / ONE_US
                       : -1.0;
}

/** Fault -> REMAP -> retried store latency. */
double
measureRemapUs()
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    ShrimpSystem sys(cfg);
    sys.kernel(1).setConsistencyPolicy(ConsistencyPolicy::INVALIDATE);
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    // Evict immediately; the writer then faults and remaps.
    sys.eventQueue().scheduleFn(
        [&] { sys.kernel(1).evictUserPage(*b, dst, [](bool) {}); },
        ONE_US);

    Tick store_done = 0;
    sys.node(1).ni.onDelivered = [&](const NetPacket &, Tick when) {
        store_done = when;
    };

    Program pa("a");
    // Long delay so the shootdown completes first.
    pa.movi(R2, 0);
    pa.movi(R3, 3000);
    pa.label("d");
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("d");
    pa.movi(R1, src);
    pa.sti(R1, 0, 1, 4);    // faults; kernel remaps; store retries
    pa.halt();
    bench_util::load(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    bench_util::load(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    sys.runUntilAllExited();
    sys.runFor(20 * ONE_MS);

    // Remap happened iff the data eventually landed.
    double delay_us = 3000.0 * 3 / 60.0;    // the spin loop, approx
    return store_done
               ? static_cast<double>(store_done) / ONE_US - delay_us
               : -1.0;
}

} // namespace

void
experiments::mapping(claims::Rows &rows)
{
    // Protection is checked once here; sends cost a few instructions
    // forever after.
    for (unsigned npages : {1u, 4u, 16u}) {
        claims::Metrics &m = claims::newRow(
            rows, "MapSyscallLatency/" + std::to_string(npages));
        m["sim_us"] = measureMapSyscallUs(npages);
        m["us_per_page"] = m["sim_us"] / npages;
    }
    // INVALIDATE policy: remote NIPT entries are shot down before
    // paging (Section 4.4).
    for (unsigned sources : {1u, 2u, 4u, 7u}) {
        claims::newRow(rows, "EvictionShootdown/" +
                                 std::to_string(sources))["sim_us"] =
            measureShootdownUs(sources);
    }
    // Write fault -> the kernel re-establishes the invalidated mapping
    // -> the store is retried.
    claims::newRow(rows, "FaultDrivenRemap")["sim_us_after_fault"] =
        measureRemapUs();
}

} // namespace shrimp
