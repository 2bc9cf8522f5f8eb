/**
 * @file
 * DSM over VMMC: fault latency and page-migration throughput under
 * the two canonical sharing patterns.
 *
 *  - Stencil: every node sweeps a strip of the shared window,
 *    write-faulting its own pages and read-faulting its neighbours'
 *    boundary pages each round -- mostly read-shared traffic with
 *    periodic invalidations at the strip edges.
 *  - Migratory: one hot counter page write-migrates around the ring,
 *    every hop a recall (owner writeback through the home) plus a
 *    fresh exclusive grant -- the protocol's worst case.
 *
 * Counters per run: pages_per_s (page movements completed per
 * simulated second), fault p50/p99 latency in simulated microseconds
 * (from the kernels' dsmFaultLatency histograms), and the raw
 * fault/fetch/invalidation totals. `shrimp_validate dsm
 * BENCH_dsm.json` gates on the latency distribution being sane and
 * on forward progress.
 */

#include <algorithm>
#include <functional>

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "os/dsm.hh"
#include "sim/logging.hh"

using namespace shrimp;

namespace
{

struct DsmResult
{
    double pagesPerSec = 0;
    double faultP50Us = 0;
    double faultP99Us = 0;
    double faults = 0;
    double fetches = 0;
    double invalidations = 0;
    double allOk = 1;
};

/**
 * A log2-bucket percentile estimate over every node's fault-latency
 * histogram: the upper edge of the bucket where the cumulative count
 * crosses @p q, converted to microseconds.
 */
double
faultPercentileUs(ShrimpSystem &sys, double q)
{
    std::vector<std::uint64_t> merged;
    std::uint64_t total = 0;
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        const stats::Histogram &h =
            sys.kernel(id).dsm()->faultLatency();
        const auto &b = h.buckets();
        if (b.size() > merged.size())
            merged.resize(b.size(), 0);
        for (std::size_t i = 0; i < b.size(); ++i)
            merged[i] += b[i];
        total += h.count();
    }
    if (total == 0)
        return 0.0;
    const auto want = static_cast<std::uint64_t>(
        q * static_cast<double>(total) + 0.5);
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < merged.size(); ++b) {
        cum += merged[b];
        if (cum >= want && merged[b] > 0) {
            std::uint64_t upper = std::uint64_t{1} << b;
            return static_cast<double>(upper) / ONE_US;
        }
    }
    return 0.0;
}

void
collect(ShrimpSystem &sys, DsmResult &r)
{
    stats::Snapshot snap = sys.snapshot();
    r.faults = static_cast<double>(snap.sum("node*.kernel.dsm.dsmFaults"));
    r.fetches =
        static_cast<double>(snap.sum("node*.kernel.dsm.dsmFetches"));
    r.invalidations = static_cast<double>(
        snap.sum("node*.kernel.dsm.dsmInvalidations"));
    r.faultP50Us = faultPercentileUs(sys, 0.50);
    r.faultP99Us = faultPercentileUs(sys, 0.99);
}

/** One node's scripted acquire sequence, driven callback-to-callback
 *  (the next op issues the moment the previous fault resumes). */
struct OpDriver
{
    struct Op
    {
        std::uint32_t page;
        bool write;
    };

    ShrimpSystem *sys = nullptr;
    NodeId node = 0;
    /** Compute time modelled between accesses; without it a string of
     *  locally-satisfied acquires would retire in zero simulated time
     *  and the per-node sweeps would stop interleaving. */
    Tick thinkTime = 10 * ONE_US;
    std::vector<Op> ops;
    std::size_t next = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    Tick lastDone = 0;

    void
    kick()
    {
        if (next >= ops.size())
            return;
        Op op = ops[next++];
        sys->kernel(node).dsm()->acquire(
            op.page, op.write, [this](std::uint64_t st) {
                if (st == err::OK)
                    ++completed;
                else
                    ++errors;
                lastDone = sys->curTick();
                sys->eventQueue().scheduleFn(
                    [this]() { kick(); },
                    sys->curTick() + thinkTime,
                    EventPriority::DEFAULT, "dsm bench op");
            });
    }

    bool finished() const { return next >= ops.size(); }
};

/**
 * Stencil sweep: node i owns pages [i*strip, (i+1)*strip); each round
 * it write-acquires its strip and read-acquires the first page of
 * each neighbouring strip (the halo exchange shape).
 */
DsmResult
runStencil(unsigned rounds)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    cfg.dsm.enabled = true;
    const unsigned n = cfg.numNodes();
    const unsigned strip = 4;
    cfg.dsm.numPages = n * strip;
    ShrimpSystem sys(cfg);

    std::vector<OpDriver> drivers(n);
    for (NodeId id = 0; id < n; ++id) {
        drivers[id].sys = &sys;
        drivers[id].node = id;
        for (unsigned round = 0; round < rounds; ++round) {
            for (unsigned k = 0; k < strip; ++k)
                drivers[id].ops.push_back({id * strip + k, true});
            const NodeId left = (id + n - 1) % n;
            const NodeId right = (id + 1) % n;
            drivers[id].ops.push_back({left * strip + strip - 1,
                                       false});
            drivers[id].ops.push_back({right * strip, false});
        }
    }
    for (auto &d : drivers)
        d.kick();
    sys.runFor(ONE_SEC);

    DsmResult r;
    std::uint64_t moved = 0;
    Tick span = 0;
    for (auto &d : drivers) {
        moved += d.completed;
        span = std::max(span, d.lastDone);
        if (!d.finished() || d.errors != 0)
            r.allOk = 0;
    }
    if (span > 0) {
        r.pagesPerSec = static_cast<double>(moved) /
                        (static_cast<double>(span) / ONE_SEC);
    }
    collect(sys, r);
    return r;
}

/**
 * Migratory counter: the single hot page write-migrates node to node
 * around the ring; every hop increments the shared counter word in
 * place, so the final value proves exactly-once migration.
 */
DsmResult
runMigratory(unsigned hops)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    cfg.dsm.enabled = true;
    cfg.dsm.numPages = 4;
    const unsigned n = cfg.numNodes();
    ShrimpSystem sys(cfg);
    const std::uint32_t page = 1;

    std::uint64_t completed = 0, errors = 0;
    Tick lastDone = 0;
    std::function<void(unsigned)> hop = [&](unsigned i) {
        if (i >= hops)
            return;
        NodeId node = static_cast<NodeId>(i % n);
        sys.kernel(node).dsm()->acquire(
            page, true, [&, i, node](std::uint64_t st) {
                if (st != err::OK) {
                    ++errors;
                    return;
                }
                ++completed;
                lastDone = sys.curTick();
                Dsm &d = *sys.kernel(node).dsm();
                Addr paddr = pageBase(d.localFrame(page));
                auto v = static_cast<std::uint32_t>(
                    sys.node(node).mem.readInt(paddr, 4));
                sys.node(node).mem.writeInt(paddr, v + 1, 4);
                hop(i + 1);
            });
    };
    hop(0);
    sys.runFor(ONE_SEC);

    DsmResult r;
    if (completed != hops || errors != 0)
        r.allOk = 0;
    // The counter carries the increment chain through every
    // migration: losing a writeback would show up here.
    NodeId last = static_cast<NodeId>((hops - 1) % n);
    Dsm &d = *sys.kernel(last).dsm();
    if (d.localState(page) != DsmPageState::WRITE_EXCLUSIVE ||
        sys.node(last).mem.readInt(pageBase(d.localFrame(page)), 4) !=
            hops) {
        r.allOk = 0;
    }
    if (lastDone > 0) {
        r.pagesPerSec = static_cast<double>(completed) /
                        (static_cast<double>(lastDone) / ONE_SEC);
    }
    collect(sys, r);
    return r;
}

void
BM_Stencil(benchmark::State &state)
{
    DsmResult r;
    auto rounds = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        r = runStencil(rounds);
    state.counters["rounds"] = rounds;
    state.counters["pages_per_s"] = r.pagesPerSec;
    state.counters["fault_p50_us"] = r.faultP50Us;
    state.counters["fault_p99_us"] = r.faultP99Us;
    state.counters["faults"] = r.faults;
    state.counters["fetches"] = r.fetches;
    state.counters["invalidations"] = r.invalidations;
    state.counters["all_ok"] = r.allOk;
    state.SetLabel("4-node halo-exchange sweep over a 16-page window; "
                   "read sharing with boundary invalidations");
}
BENCHMARK(BM_Stencil)->Name("Stencil")->Arg(4)->Arg(16)->Iterations(1);

void
BM_Migratory(benchmark::State &state)
{
    DsmResult r;
    auto hops = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        r = runMigratory(hops);
    state.counters["hops"] = hops;
    state.counters["pages_per_s"] = r.pagesPerSec;
    state.counters["fault_p50_us"] = r.faultP50Us;
    state.counters["fault_p99_us"] = r.faultP99Us;
    state.counters["faults"] = r.faults;
    state.counters["fetches"] = r.fetches;
    state.counters["invalidations"] = r.invalidations;
    state.counters["all_ok"] = r.allOk;
    state.SetLabel("one hot counter page write-migrating around the "
                   "ring; every hop recalls the previous owner");
}
BENCHMARK(BM_Migratory)
    ->Name("Migratory")
    ->Arg(16)
    ->Arg(64)
    ->Iterations(1);

} // namespace

SHRIMP_BENCH_MAIN("dsm");
