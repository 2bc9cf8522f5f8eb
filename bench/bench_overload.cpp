/**
 * @file
 * Overload survival: goodput vs offered load under incast and
 * all-to-all pressure on a 4x4 mesh with the full congestion stack on
 * (AIMD windows, router ECN marks echoed on ACKs, paced + jittered
 * retransmissions, a small receive FIFO, progress watchdogs).
 *
 * The Incast sweep drives 15 senders at one receiver from 25% to 200%
 * of the nominal saturation load. The interesting property is the
 * shape of the goodput curve: it must rise to capacity and then stay
 * flat, not collapse as retransmissions amplify the overload.
 * `shrimp_validate overload BENCH_overload.json` gates on the
 * highest-load point retaining >= 80% of the sweep's peak goodput.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "sim/logging.hh"

using namespace shrimp;

namespace
{

struct OverloadResult
{
    double offeredMBps = 0;
    double goodputMBps = 0;
    double retransmits = 0;
    double pacedRetransmits = 0;
    double ecnMarks = 0;
    double ecnEchoes = 0;
    double sendDrops = 0;
    double watchdogStalls = 0;
    double allSafe = 1;
};

/** The congestion stack the overload runs exercise. */
SystemConfig
overloadConfig()
{
    SystemConfig cfg = SystemConfig::paper16();
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.congestion.enabled = true;
    cfg.ni.reliability.congestion.paceBucketPackets = 8;
    cfg.ni.reliability.congestion.rtoJitterPermille = 250;
    cfg.router.ecnThresholdPackets = 3;
    // A small receive FIFO so overload actually reaches the
    // congestion thresholds instead of hiding in buffer depth.
    cfg.ni.inFifo = PacketFifo::Params{8 * 1024, 6 * 1024, 3 * 1024};
    cfg.ni.watchdogPeriod = 2 * ONE_MS;
    return cfg;
}

/** Read the overload counters off a finished system's stat paths. */
void
collectCounters(const ShrimpSystem &sys, OverloadResult &r)
{
    stats::Snapshot snap = sys.snapshot();
    auto sum = [&snap](const char *pattern) {
        return static_cast<double>(snap.sum(pattern));
    };
    r.retransmits = sum("node*.ni.retx.retxTimeout") +
                    sum("node*.ni.retx.retxNack");
    r.pacedRetransmits = sum("node*.ni.retx.retxPaced");
    r.ecnMarks = sum("node*.ni.ecnMarksSeen");
    r.ecnEchoes = sum("node*.ni.ecnEchoesSent");
    r.sendDrops = sum("node*.ni.sendOverflowDrops");
    r.watchdogStalls = sum("node*.ni.watchdogStalls");
}

/**
 * Incast: every other node maps one page at node 0 and fires
 * host-driven 4-byte automatic updates at it. @p load_pct scales the
 * aggregate store rate relative to a nominal saturation point (100 =
 * one packet per microsecond arriving at the hot node).
 */
OverloadResult
runIncast(unsigned load_pct, unsigned stores_per_sender)
{
    SystemConfig cfg = overloadConfig();
    ShrimpSystem sys(cfg);
    EventQueue &eq = sys.eventQueue();
    const unsigned n = cfg.numNodes();
    const unsigned senders = n - 1;

    Process *hot = sys.kernel(0).createProcess("hot");
    Addr dstBase = hot->allocate(senders);
    std::vector<Process *> procs(n, nullptr);
    std::vector<Addr> srcPaddr(n, 0);
    for (NodeId s = 1; s < n; ++s) {
        procs[s] = sys.kernel(s).createProcess("sender");
        Addr src = procs[s]->allocate(1);
        std::uint64_t e = sys.kernel(s).mapDirect(
            *procs[s], src, 1, sys.kernel(0), *hot,
            dstBase + (s - 1) * PAGE_SIZE, UpdateMode::AUTO_SINGLE);
        SHRIMP_ASSERT(e == err::OK, "incast mapping failed: ", e);
        Translation t = procs[s]->space().translate(src, true);
        srcPaddr[s] = t.paddr;
    }

    Tick firstInject = MAX_TICK, lastDeliver = 0;
    std::uint64_t delivered = 0;
    sys.node(0).ni.onDelivered = [&](const NetPacket &pkt, Tick when) {
        if (pkt.injectedAt < firstInject)
            firstInject = pkt.injectedAt;
        lastDeliver = when;
        delivered += pkt.payload.size();
    };

    // 100% of nominal saturation = one arriving packet per us in
    // aggregate, i.e. each of the 15 senders stores every 15 us.
    const Tick interval =
        15 * ONE_US * 100 / (load_pct ? load_pct : 1);
    constexpr unsigned pageWords = PAGE_SIZE / 4;
    for (NodeId s = 1; s < n; ++s) {
        for (unsigned k = 0; k < stores_per_sender; ++k) {
            Addr paddr = srcPaddr[s] + k % pageWords * 4;
            std::uint32_t value = k + 1;
            eq.scheduleFn(
                [&sys, s, paddr, value]() {
                    sys.node(s).bus.postWrite(paddr, &value, 4,
                                              BusMaster::CPU,
                                              sys.curTick());
                },
                Tick{k} * interval, EventPriority::DEFAULT,
                "incast store");
        }
    }

    sys.runFor(Tick{stores_per_sender} * interval + 100 * ONE_MS);

    OverloadResult r;
    r.offeredMBps = senders * 4.0 /
                    (static_cast<double>(interval) / ONE_SEC) / 1e6;
    if (lastDeliver > firstInject) {
        r.goodputMBps =
            delivered /
            (static_cast<double>(lastDeliver - firstInject) / ONE_SEC) /
            1e6;
    }
    collectCounters(sys, r);
    // Safety even under overload: every delivered word is one some
    // sender really stored at that offset (drops shed load, they
    // never corrupt).
    for (NodeId s = 1; s < n; ++s) {
        Translation dt = hot->space().translate(
            dstBase + (s - 1) * PAGE_SIZE, false);
        for (unsigned j = 0; j < pageWords; ++j) {
            auto v = static_cast<std::uint32_t>(
                sys.node(0).mem.readInt(dt.paddr + 4 * j, 4));
            if (v != 0 && (v > stores_per_sender ||
                           (v - 1) % pageWords != j))
                r.allSafe = 0;
        }
    }
    return r;
}

/**
 * All-to-all: every ordered pair is mapped and every node sprays its
 * peers round-robin, so congestion forms inside the mesh rather than
 * at one hot ejection port.
 */
OverloadResult
runAllToAll(unsigned load_pct, unsigned stores_per_sender)
{
    SystemConfig cfg = overloadConfig();
    ShrimpSystem sys(cfg);
    EventQueue &eq = sys.eventQueue();
    const unsigned n = cfg.numNodes();

    std::vector<Process *> procs(n);
    std::vector<Addr> srcBase(n), dstBase(n);
    for (NodeId id = 0; id < n; ++id) {
        procs[id] = sys.kernel(id).createProcess("a2a");
        srcBase[id] = procs[id]->allocate(n);
        dstBase[id] = procs[id]->allocate(n);
    }
    std::vector<Addr> srcPaddr(n * n, 0);
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            std::uint64_t e = sys.kernel(s).mapDirect(
                *procs[s], srcBase[s] + d * PAGE_SIZE, 1,
                sys.kernel(d), *procs[d],
                dstBase[d] + s * PAGE_SIZE, UpdateMode::AUTO_SINGLE);
            SHRIMP_ASSERT(e == err::OK, "a2a mapping failed: ", e);
            Translation t = procs[s]->space().translate(
                srcBase[s] + d * PAGE_SIZE, true);
            srcPaddr[s * n + d] = t.paddr;
        }
    }

    Tick firstInject = MAX_TICK, lastDeliver = 0;
    std::uint64_t delivered = 0;
    for (NodeId id = 0; id < n; ++id) {
        sys.node(id).ni.onDelivered =
            [&](const NetPacket &pkt, Tick when) {
                if (pkt.injectedAt < firstInject)
                    firstInject = pkt.injectedAt;
                lastDeliver = when;
                delivered += pkt.payload.size();
            };
    }

    // Same normalization as the incast run: at 100%, each node emits
    // one packet per 15 us, cycling through its 15 peers.
    const Tick interval =
        15 * ONE_US * 100 / (load_pct ? load_pct : 1);
    constexpr unsigned pageWords = PAGE_SIZE / 4;
    for (NodeId s = 0; s < n; ++s) {
        for (unsigned k = 0; k < stores_per_sender; ++k) {
            NodeId d = static_cast<NodeId>((s + 1 + k % (n - 1)) % n);
            Addr paddr =
                srcPaddr[s * n + d] + k / (n - 1) % pageWords * 4;
            std::uint32_t value = k / (n - 1) + 1;
            eq.scheduleFn(
                [&sys, s, paddr, value]() {
                    sys.node(s).bus.postWrite(paddr, &value, 4,
                                              BusMaster::CPU,
                                              sys.curTick());
                },
                Tick{k} * interval / (n - 1), EventPriority::DEFAULT,
                "a2a store");
        }
    }

    sys.runFor(Tick{stores_per_sender} * interval / (n - 1) +
               100 * ONE_MS);

    OverloadResult r;
    r.offeredMBps = n * (n - 1) * 4.0 /
                    (static_cast<double>(interval) / ONE_SEC) / 1e6;
    if (lastDeliver > firstInject) {
        r.goodputMBps =
            delivered /
            (static_cast<double>(lastDeliver - firstInject) / ONE_SEC) /
            1e6;
    }
    collectCounters(sys, r);
    return r;
}

void
BM_Incast_LoadSweep(benchmark::State &state)
{
    OverloadResult r;
    auto load_pct = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        r = runIncast(load_pct, 512);
    state.counters["load_pct"] = load_pct;
    state.counters["offered_MBps"] = r.offeredMBps;
    state.counters["goodput_MBps"] = r.goodputMBps;
    state.counters["retransmits"] = r.retransmits;
    state.counters["paced_retransmits"] = r.pacedRetransmits;
    state.counters["ecn_marks"] = r.ecnMarks;
    state.counters["ecn_echoes"] = r.ecnEchoes;
    state.counters["send_drops"] = r.sendDrops;
    state.counters["watchdog_stalls"] = r.watchdogStalls;
    state.counters["all_safe"] = r.allSafe;
    state.SetLabel("15-to-1 incast; load_pct of nominal saturation; "
                   "goodput must not collapse as load rises");
}
BENCHMARK(BM_Incast_LoadSweep)
    ->Name("Incast")
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(150)
    ->Arg(200)
    ->Arg(300)
    ->Arg(400)       // ~2.5x measured saturation: the collapse gate
    ->Iterations(1);

void
BM_AllToAll_Load(benchmark::State &state)
{
    OverloadResult r;
    auto load_pct = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        r = runAllToAll(load_pct, 480);
    state.counters["load_pct"] = load_pct;
    state.counters["offered_MBps"] = r.offeredMBps;
    state.counters["goodput_MBps"] = r.goodputMBps;
    state.counters["retransmits"] = r.retransmits;
    state.counters["paced_retransmits"] = r.pacedRetransmits;
    state.counters["ecn_marks"] = r.ecnMarks;
    state.counters["ecn_echoes"] = r.ecnEchoes;
    state.counters["send_drops"] = r.sendDrops;
    state.counters["watchdog_stalls"] = r.watchdogStalls;
    state.SetLabel("all-to-all spray; congestion forms inside the "
                   "mesh rather than at one ejection port");
}
BENCHMARK(BM_AllToAll_Load)
    ->Name("AllToAll")
    ->Arg(50)
    ->Arg(150)
    ->Iterations(1);

} // namespace

SHRIMP_BENCH_MAIN("overload");
