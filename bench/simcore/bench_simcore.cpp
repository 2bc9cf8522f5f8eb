/**
 * @file
 * bench_simcore: the repository's benchmark. Five canonical workloads,
 * each repetition on a fresh machine in its own forked child process
 * (so peak RSS is per workload), measured on two clocks:
 *
 *  - host time, how fast the simulator runs: setup_s, run_s,
 *    sim_bytes_per_host_s, peak_rss_mb and per-layer call costs;
 *  - simulated time, what the modelled machine does: op latency
 *    percentiles from sorted raw samples, ops_per_sim_s, sim_MBps and
 *    failed_frac.
 *
 * Every layer is measured from outside the simulator: host-time spans
 * around calls into public APIs, counters read back from
 * ShrimpSystem::dumpStatsJson, and per-packet stage times parsed from
 * the SystemConfig::traceEnabled tracer (--traced). README.md in this
 * directory lists the workloads, the metrics with their bounds, and
 * which layer metric should move which end-to-end metric.
 *
 * Usage:
 *   bench_simcore [--workload NAME|all] [--seed S] [--scale F]
 *                 [--reps N] [--seconds T] [--traced]
 *                 [--json FILE] [--spans FILE]
 *
 * Runs at least N repetitions per workload (default 3), and more until
 * T host seconds have passed. Prints `workload metric value unit`
 * lines, writes FILE (default BENCH_simcore.json) and the host spans
 * as Chrome trace events (default BENCH_simcore.spans.json), and exits
 * non-zero on any correctness or determinism failure.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "msg/deliberate.hh"
#include "os/dsm.hh"
#include "sim/json.hh"
#include "sim/random.hh"
#include "sim/trace.hh"

using namespace shrimp;

namespace
{

// ---------------------------------------------------------------------
// Host clock, spans and reported numbers
// ---------------------------------------------------------------------

/** Host nanoseconds: the one host clock read in this benchmark. */
std::uint64_t
hostNs()
{
    using namespace std::chrono;
    // NOLINTNEXTLINE(shrimp-determinism-clock): never feeds sim state
    auto now = steady_clock::now();
    return static_cast<std::uint64_t>(
        duration_cast<nanoseconds>(now.time_since_epoch()).count());
}

/** Host-time spans (name, start, end, parent) around layer calls. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        int parent = -1;    //!< index of the enclosing span, -1 = root
    };

    void
    open(std::string name)
    {
        int parent = _open.empty() ? -1 : _open.back();
        _spans.push_back(Span{std::move(name), hostNs(), 0, parent});
        _open.push_back(static_cast<int>(_spans.size()) - 1);
    }

    /** Close the innermost open span; returns its length in seconds. */
    double
    close()
    {
        Span &s = _spans[static_cast<std::size_t>(_open.back())];
        _open.pop_back();
        s.end = hostNs();
        return static_cast<double>(s.end - s.start) * 1e-9;
    }

    const std::vector<Span> &spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** One reported number. Host metrics are medians over repetitions;
 *  simulated ones must repeat exactly (the determinism gate). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    bool host = false;
    /** Host metrics: the value of every repetition, in run order. */
    std::vector<double> samples;
};

/** Everything one repetition reports back to the parent. */
struct RepResult
{
    std::vector<Metric> metrics;
    std::vector<SpanLog::Span> spans;
    std::vector<std::string> errors;
    std::uint64_t fingerprint = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double peakRssMb = 0;       //!< from wait4, filled by the parent

    const Metric *
    find(const std::string &name) const
    {
        for (const Metric &m : metrics) {
            if (m.name == name)
                return &m;
        }
        return nullptr;
    }
};

/** Shortest text that reads back as exactly @p v. */
std::string
numText(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** FNV-1a over the stats dump: the same determinism probe as chaos. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Nearest-rank percentile num/den of sorted @p v, or nothing when fewer
 * than ten samples lie beyond it: such a tail is too thin to report.
 */
std::optional<Tick>
percentile(const std::vector<Tick> &v, std::uint64_t num, std::uint64_t den)
{
    const std::uint64_t n = v.size();
    const std::uint64_t rank = (n * num + den - 1) / den;
    if (n == 0 || rank == 0 || n - rank < 10)
        return std::nullopt;
    return v[rank - 1];
}

double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ONE_US);
}

// ---------------------------------------------------------------------
// Stats dump queries
// ---------------------------------------------------------------------

/** Does @p key read `<prefix><digits>.<suffix>`? */
bool
keyMatches(const std::string &key, const std::string &prefix,
           const std::string &suffix)
{
    if (key.compare(0, prefix.size(), prefix) != 0)
        return false;
    std::size_t i = prefix.size();
    std::size_t digits = i;
    while (i < key.size() && key[i] >= '0' && key[i] <= '9')
        ++i;
    return i > digits && i + 1 + suffix.size() == key.size() &&
           key[i] == '.' && key.compare(i + 1, suffix.size(), suffix) == 0;
}

/** Sum (or max) of a scalar stat over every node or router. */
double
statSum(const json::Value &stats, const std::string &prefix,
        const std::string &suffix, bool take_max = false)
{
    double acc = 0;
    for (const auto &[key, v] : stats.obj) {
        if (!v.isNumber() || !keyMatches(key, prefix, suffix))
            continue;
        acc = take_max ? std::max(acc, v.number) : acc + v.number;
    }
    return acc;
}

double
nodeSum(const json::Value &stats, const std::string &suffix)
{
    return statSum(stats, "node", suffix);
}

double
routerSum(const json::Value &stats, const std::string &suffix)
{
    return statSum(stats, "mesh.router", suffix);
}

/** Sample-weighted mean of a histogram stat over every router. */
double
routerHistMean(const json::Value &stats, const std::string &suffix)
{
    double count = 0, weighted = 0;
    for (const auto &[key, v] : stats.obj) {
        if (!v.isObject() || !keyMatches(key, "mesh.router", suffix))
            continue;
        const json::Value *c = v.find("count");
        const json::Value *m = v.find("mean");
        if (c && m) {
            count += c->number;
            weighted += c->number * m->number;
        }
    }
    return count > 0 ? weighted / count : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// One repetition, inside its child process
// ---------------------------------------------------------------------

/** Simulated-side outcome of one repetition. */
struct Outcome
{
    std::vector<Tick> latencies;    //!< one per completed op
    /** DSM acquires the local copy satisfied at once: completed ops
     *  with no latency sample (their share is dsm.local_hit_frac). */
    std::uint64_t localHits = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Tick first = MAX_TICK;          //!< earliest op start
    Tick last = 0;                  //!< latest op completion
    double opBytes = 0;             //!< payload the ops moved
    /** sim_MBps counts DSM page transfers from the stats dump. */
    bool dsmPages = false;
};

/**
 * The context one workload repetition runs in: it owns the machine,
 * wraps each timed layer call in a host span, and turns the outcome
 * plus the stats dump (and, traced, the packet trace) into metrics.
 */
class Rep
{
  public:
    Rep(std::uint64_t seed_, double scale_, bool traced_)
        : seed(seed_), scale(scale_), traced(traced_), rng(seed_)
    {
        _spans.open("rep");
    }

    const std::uint64_t seed;
    const double scale;
    const bool traced;
    /** Every generator draw of the workload comes from here. */
    Rng rng;

    /** @p base scaled by --scale, at least 1. */
    unsigned
    scaled(unsigned base) const
    {
        double v = std::round(base * scale);
        return v < 1 ? 1u : static_cast<unsigned>(v);
    }

    ShrimpSystem &sys() { return *_sys; }

    /** Record a correctness failure (the run will exit non-zero). */
    void
    fail(const std::string &what)
    {
        if (++_errorCount <= 10)
            _result.errors.push_back(what);
    }

    // ---- timed layer calls (setup phase) ----

    ShrimpSystem &
    boot(SystemConfig cfg)
    {
        cfg.traceEnabled = traced;
        _spans.open("setup");
        _spans.open("core.boot");
        _sys = std::make_unique<ShrimpSystem>(cfg);
        _bootS = _spans.close();
        return *_sys;
    }

    Process *
    createProcess(NodeId node, const std::string &name)
    {
        _spans.open("os.create_process");
        Process *p = _sys->kernel(node).createProcess(name);
        _spans.close();
        return p;
    }

    void
    mapDirect(NodeId src, Process &sp, Addr svaddr, NodeId dst,
              Process &dp, Addr dvaddr, UpdateMode mode)
    {
        _spans.open("os.map");
        std::uint64_t e = _sys->kernel(src).mapDirect(
            sp, svaddr, 1, _sys->kernel(dst), dp, dvaddr, mode);
        _mapS += _spans.close();
        ++_mapCalls;
        if (e != err::OK) {
            fail("mapDirect " + std::to_string(src) + "->" +
                 std::to_string(dst) + " failed: errno " +
                 std::to_string(e));
        }
    }

    Addr
    mapCommandPages(NodeId node, Process &p, Addr vaddr, std::size_t n)
    {
        _spans.open("os.map_command_pages");
        Addr cmd = _sys->kernel(node).mapCommandPages(p, vaddr, n);
        _mapS += _spans.close();
        ++_mapCalls;
        return cmd;
    }

    void
    loadProgram(NodeId node, Process &p, Program &&prog)
    {
        _spans.open("os.load_program");
        prog.finalize();
        _sys->kernel(node).loadAndReady(
            p, std::make_shared<Program>(std::move(prog)));
        _spans.close();
    }

    /** Host writes of initial data into simulated memory. */
    void
    fill(const std::function<void()> &body)
    {
        _spans.open("mem.fill");
        body();
        _spans.close();
    }

    /** End the setup phase and time @p body as the event loop. */
    void
    run(const std::function<void()> &body)
    {
        _setupS = _spans.close();
        const std::uint64_t before = _sys->eventQueue().numProcessed();
        _spans.open("sim.run");
        body();
        _runS = _spans.close();
        _events = _sys->eventQueue().numProcessed() - before;
    }

    // ---- timed layer calls (run phase, aggregated, not spanned) ----

    /** A host-driven 4-byte CPU store through the Xpress bus. */
    void
    postWrite(NodeId node, Addr paddr, std::uint32_t value)
    {
        const std::uint64_t t0 = hostNs();
        _sys->node(node).bus.postWrite(paddr, &value, sizeof(value),
                                       BusMaster::CPU, _sys->curTick());
        _postWriteNs += hostNs() - t0;
        ++_postWrites;
    }

    void
    acquire(NodeId node, std::uint32_t page, bool write,
            std::function<void(std::uint64_t)> done)
    {
        const std::uint64_t t0 = hostNs();
        _sys->kernel(node).dsm()->acquire(page, write, std::move(done));
        _acquireNs += hostNs() - t0;
        ++_acquires;
    }

    RepResult finish(Outcome o);

  private:
    void
    metric(const std::string &name, double v, const char *unit, bool host)
    {
        if (!std::isfinite(v)) {
            fail(name + " is not finite");
            v = 0;
        }
        _result.metrics.push_back(Metric{name, v, unit, host, {}});
    }
    void exact(const std::string &n, double v, const char *u)
    {
        metric(n, v, u, false);
    }
    void host(const std::string &n, double v, const char *u)
    {
        metric(n, v, u, true);
    }

    void layerMetrics(const json::Value &stats, const Outcome &o);
    void stageBreakdown();

    std::unique_ptr<ShrimpSystem> _sys;
    SpanLog _spans;
    RepResult _result;
    unsigned _errorCount = 0;

    double _bootS = 0, _setupS = 0, _runS = 0, _mapS = 0;
    std::uint64_t _mapCalls = 0, _events = 0;
    std::uint64_t _postWriteNs = 0, _postWrites = 0;
    std::uint64_t _acquireNs = 0, _acquires = 0;
};

RepResult
Rep::finish(Outcome o)
{
    _spans.open("stats.dump");
    std::ostringstream dump;
    _sys->dumpStatsJson(dump);
    const std::string text = dump.str();
    _result.fingerprint = fnv1a(text);
    const json::Value stats = json::parse(text);
    _spans.close();

    // ---- end to end ----
    std::sort(o.latencies.begin(), o.latencies.end());
    const double done =
        static_cast<double>(o.latencies.size() + o.localHits);
    const double simS =
        o.last > o.first
            ? static_cast<double>(o.last - o.first) / ONE_SEC
            : 0.0;
    if (o.dsmPages) {
        o.opBytes = nodeSum(stats, "kernel.dsm.dsmPagesSent") *
                    static_cast<double>(PAGE_SIZE);
    }
    host("run_s", _runS, "s");
    host("setup_s", _setupS, "s");
    host("sim_bytes_per_host_s",
         ratio(nodeSum(stats, "ni.bytesDelivered"), _runS), "B/s");
    exact("op_samples", static_cast<double>(o.latencies.size()), "count");
    const std::array<std::pair<const char *, std::uint64_t>, 3> pcts{{
        {"op_p50_us", 500}, {"op_p99_us", 990}, {"op_p999_us", 999}}};
    for (const auto &[name, permille] : pcts) {
        if (auto p = percentile(o.latencies, permille, 1000))
            exact(name, ticksToUs(*p), "us");
    }
    exact("ops_per_sim_s", ratio(done, simS), "1/s");
    exact("sim_MBps", ratio(o.opBytes, simS) / 1e6, "MB/s");
    exact("failed_frac",
          ratio(static_cast<double>(o.failed),
                static_cast<double>(o.attempted)),
          "frac");

    layerMetrics(stats, o);
    if (traced)
        stageBreakdown();

    if (_errorCount > 10) {
        _result.errors.push_back(std::to_string(_errorCount - 10) +
                                 " further failures not shown");
    }
    _spans.close();     // rep
    _result.spans = _spans.spans();
    _result.attempted = o.attempted;
    _result.failed = o.failed;
    return std::move(_result);
}

/** Per-layer counters, summed over nodes, and host call costs. */
void
Rep::layerMetrics(const json::Value &stats, const Outcome &o)
{
    const double events = static_cast<double>(_events);
    exact("sim.events", events, "count");
    exact("sim.events_per_op",
          ratio(events, static_cast<double>(o.attempted)), "count");
    host("sim.host_ns_per_event", ratio(_runS * 1e9, events), "ns");
    host("sim.events_per_s", ratio(events, _runS), "1/s");

    host("core.boot_s", _bootS, "s");
    host("os.map_s", _mapS, "s");
    exact("os.map_calls", static_cast<double>(_mapCalls), "count");

    host("mem.post_write_ns",
         ratio(static_cast<double>(_postWriteNs),
               static_cast<double>(_postWrites)),
         "ns");
    exact("mem.xpress_transactions",
          nodeSum(stats, "xpress.transactions"), "count");
    exact("mem.xpress_wait_us",
          ticksToUs(static_cast<Tick>(
              nodeSum(stats, "xpress.contentionTicks"))),
          "us");
    exact("mem.eisa_bytes", nodeSum(stats, "eisa.bytes"), "B");
    const double hits = nodeSum(stats, "cache.hits");
    exact("mem.cache_hit_frac",
          ratio(hits, hits + nodeSum(stats, "cache.misses")), "frac");

    exact("cpu.instructions", nodeSum(stats, "cpu.instructions"),
          "count");
    exact("cpu.kernel_instructions",
          nodeSum(stats, "cpu.kernelInstructions"), "count");
    exact("cpu.locked_ops", nodeSum(stats, "cpu.lockedOps"), "count");
    exact("os.context_switches",
          nodeSum(stats, "kernel.contextSwitches"), "count");
    exact("os.fifo_stall_us",
          ticksToUs(static_cast<Tick>(
              nodeSum(stats, "kernel.fifoStallTicks"))),
          "us");

    exact("nic.dma_transfers", nodeSum(stats, "ni.dma.transfers"),
          "count");
    exact("nic.dma_rejected_starts",
          nodeSum(stats, "ni.dma.rejectedStarts"), "count");
    exact("nic.dma_fifo_stalls", nodeSum(stats, "ni.dma.fifoStalls"),
          "count");
    const double sent = nodeSum(stats, "ni.pktsSent");
    const double delivered = nodeSum(stats, "ni.pktsDelivered");
    exact("nic.pkts_sent", sent, "count");
    exact("nic.pkts_delivered", delivered, "count");
    exact("nic.delivered_frac", ratio(delivered, sent), "frac");
    exact("nic.retransmits",
          nodeSum(stats, "ni.retx.retxTimeout") +
              nodeSum(stats, "ni.retx.retxNack"),
          "count");
    exact("nic.paced_retransmits", nodeSum(stats, "ni.retx.retxPaced"),
          "count");
    exact("nic.send_overflow_drops",
          nodeSum(stats, "ni.sendOverflowDrops"), "count");
    exact("nic.ecn_echoes", nodeSum(stats, "ni.ecnEchoesSent"), "count");
    exact("nic.cwnd_cuts",
          nodeSum(stats, "ni.retx.ecnBackoffs") +
              nodeSum(stats, "ni.retx.lossBackoffs"),
          "count");
    exact("nic.in_fifo_peak_bytes",
          statSum(stats, "node", "ni.inFifo.maxFillBytes", true), "B");

    const double hops = routerSum(stats, "forwarded");
    exact("net.hops", hops, "count");
    exact("net.hops_per_pkt", ratio(hops, routerSum(stats, "ejected")),
          "count");
    exact("net.credit_blocks", routerSum(stats, "blockedOnCredit"),
          "count");
    exact("net.sink_blocks", routerSum(stats, "blockedOnSink"), "count");
    exact("net.ecn_marks", routerSum(stats, "ecnMarks"), "count");
    exact("net.queue_depth_mean", routerHistMean(stats, "inQueueDepth"),
          "pkts");

    const double faults = nodeSum(stats, "kernel.dsm.dsmFaults");
    exact("dsm.faults", faults, "count");
    exact("dsm.fetches", nodeSum(stats, "kernel.dsm.dsmFetches"),
          "count");
    exact("dsm.invalidations",
          nodeSum(stats, "kernel.dsm.dsmInvalidations"), "count");
    exact("dsm.pages_sent", nodeSum(stats, "kernel.dsm.dsmPagesSent"),
          "count");
    exact("dsm.local_hit_frac",
          _acquires ? 1.0 - faults / static_cast<double>(_acquires) : 0.0,
          "frac");
    host("dsm.acquire_call_ns",
         ratio(static_cast<double>(_acquireNs),
               static_cast<double>(_acquires)),
         "ns");
}

/**
 * Split every traced packet's lifetime into five stages. Flows that
 * were retransmitted or dropped are counted and left out; for every
 * other flow the stages must sum exactly to the lifetime latency the
 * NI recorded.
 */
void
Rep::stageBreakdown()
{
    // Lifecycle points in flow order: lifetime begin, packetized,
    // inject, eject, inFifoEnqueue, commit, lifetime end.
    constexpr std::size_t kPoints = 7;
    static const std::array<const char *, 5> kStages = {
        "packetize", "out_fifo", "network", "eject", "receive"};
    struct Flow
    {
        std::array<Tick, kPoints> at{};
        std::array<unsigned, kPoints> seen{};
        Tick latency = 0;
        bool retransmitted = false;
        bool dropped = false;
    };

    _spans.open("trace.parse");
    std::ostringstream out;
    _sys->tracer()->exportJson(out);
    const json::Value doc = json::parse(out.str());
    const json::Value *events = doc.find("traceEvents");
    if (!events) {
        fail("the trace export has no traceEvents");
        _spans.close();
        return;
    }
    std::unordered_map<std::uint64_t, Flow> flows;
    for (const json::Value &e : events->arr) {
        const json::Value *cat = e.find("cat");
        if (!cat || cat->str != "packet")
            continue;
        const std::string &ph = e.find("ph")->str;
        const std::string &name = e.find("name")->str;
        Flow &f = flows[std::stoull(e.find("id")->str, nullptr, 16)];
        const Tick ts = static_cast<Tick>(
            std::llround(e.find("ts")->number * ONE_US));
        int point = -1;
        if (name == "lifetime") {
            point = ph == "b" ? 0 : 6;
            if (ph == "e") {
                const json::Value *lat = e.find("args")->find("latency");
                f.latency = static_cast<Tick>(lat->number);
            }
        } else if (name == "packetized") {
            point = 1;
        } else if (name == "inject") {
            point = 2;
        } else if (name == "eject") {
            point = 3;
        } else if (name == "inFifoEnqueue") {
            point = 4;
        } else if (name == "commit") {
            point = 5;
        } else if (name == "retransmitInject") {
            f.retransmitted = true;
        } else if (name == "dropped" || name == "lost") {
            f.dropped = true;
        }
        if (point >= 0) {
            f.at[static_cast<std::size_t>(point)] = ts;
            ++f.seen[static_cast<std::size_t>(point)];
        }
    }

    std::array<std::vector<Tick>, kStages.size()> samples;
    std::uint64_t complete = 0, retransmitted = 0, dropped = 0,
                  incomplete = 0;
    for (const auto &[id, f] : flows) {
        if (f.retransmitted) {
            ++retransmitted;
            continue;
        }
        if (f.dropped) {
            ++dropped;
            continue;
        }
        bool whole = std::all_of(f.seen.begin(), f.seen.end(),
                                 [](unsigned s) { return s == 1; });
        for (std::size_t k = 1; whole && k < kPoints; ++k)
            whole = f.at[k] >= f.at[k - 1];
        if (!whole) {
            ++incomplete;
            continue;
        }
        Tick sum = 0;
        for (std::size_t s = 0; s < kStages.size(); ++s) {
            samples[s].push_back(f.at[s + 1] - f.at[s]);
            sum += f.at[s + 1] - f.at[s];
        }
        if (sum != f.latency || f.at[6] != f.at[5]) {
            fail("packet flow " + std::to_string(id) +
                 ": stages sum to " + std::to_string(sum) +
                 " ticks, lifetime latency is " +
                 std::to_string(f.latency));
        }
        ++complete;
    }
    _spans.close();

    exact("stage.flows", static_cast<double>(complete), "count");
    exact("stage.retransmitted_flows", static_cast<double>(retransmitted),
          "count");
    exact("stage.dropped_flows", static_cast<double>(dropped), "count");
    exact("stage.incomplete_flows", static_cast<double>(incomplete),
          "count");
    for (std::size_t s = 0; s < kStages.size(); ++s) {
        std::sort(samples[s].begin(), samples[s].end());
        const std::string base = std::string("stage.") + kStages[s];
        if (auto p = percentile(samples[s], 50, 100))
            exact(base + ".p50_us", ticksToUs(*p), "us");
        if (auto p = percentile(samples[s], 99, 100))
            exact(base + ".p99_us", ticksToUs(*p), "us");
    }
}

// ---------------------------------------------------------------------
// Open-loop store workloads
// ---------------------------------------------------------------------

/** A generated store: @p src writes word @p word of its page toward
 *  @p dst at @p due. */
struct StoreSpec
{
    Tick due;
    NodeId src;
    NodeId dst;
    std::uint32_t word;
};

/** A store resolved to physical addresses; its value is index + 1. */
struct Store
{
    Tick due;
    Addr srcPaddr;
    Addr dstPaddr;
    NodeId src;
    NodeId dst;
};

/**
 * The open-loop generator: one embedded event walks the due-sorted
 * store list, so the harness adds one queue entry per distinct due
 * tick instead of one one-shot per store. Simulated time is exact, so
 * every store issues at its due tick: generator lateness is 0.
 */
class StorePump
{
  public:
    StorePump(Rep &rep, const std::vector<Store> &stores)
        : _rep(rep), _stores(stores),
          _event([this] { fire(); }, "simcore store pump")
    {}

    void
    start()
    {
        if (!_stores.empty())
            _rep.sys().eventQueue().schedule(&_event, _stores[0].due);
    }

  private:
    void
    fire()
    {
        const Tick now = _rep.sys().curTick();
        while (_next < _stores.size() && _stores[_next].due <= now) {
            const Store &s = _stores[_next];
            ++_next;
            _rep.postWrite(s.src, s.srcPaddr,
                           static_cast<std::uint32_t>(_next));
        }
        if (_next < _stores.size()) {
            _rep.sys().eventQueue().schedule(&_event,
                                             _stores[_next].due);
        }
    }

    Rep &_rep;
    const std::vector<Store> &_stores;
    std::size_t _next = 0;
    EventFunctionWrapper _event;
};

/**
 * Map every (src, dst) pair in @p pairs AUTO_SINGLE (one page each),
 * replay @p specs through the pump, drain for @p drain, and check that
 * every store was delivered exactly once, to the right place, and that
 * each destination word ends holding the last value stored to it.
 */
Outcome
runStores(Rep &rep, const SystemConfig &cfg,
          const std::vector<std::pair<NodeId, NodeId>> &pairs,
          std::vector<StoreSpec> specs, Tick drain)
{
    std::stable_sort(specs.begin(), specs.end(),
                     [](const StoreSpec &a, const StoreSpec &b) {
                         return a.due < b.due;
                     });

    ShrimpSystem &sys = rep.boot(cfg);
    const unsigned n = cfg.numNodes();
    // Pair (s, d) uses page d of s's source window and page s of d's
    // destination window.
    std::vector<Process *> procs(n);
    std::vector<Addr> srcBase(n), dstBase(n);
    for (NodeId id = 0; id < n; ++id) {
        procs[id] = rep.createProcess(id, "p" + std::to_string(id));
        srcBase[id] = procs[id]->allocate(n);
        dstBase[id] = procs[id]->allocate(n);
    }
    std::vector<Addr> srcPage(n * n, 0), dstPage(n * n, 0);
    for (auto [s, d] : pairs) {
        const Addr sv = srcBase[s] + d * PAGE_SIZE;
        const Addr dv = dstBase[d] + s * PAGE_SIZE;
        rep.mapDirect(s, *procs[s], sv, d, *procs[d], dv,
                      UpdateMode::AUTO_SINGLE);
        srcPage[s * n + d] = procs[s]->space().translate(sv, true).paddr;
        dstPage[s * n + d] = procs[d]->space().translate(dv, false).paddr;
    }

    std::vector<Store> stores;
    stores.reserve(specs.size());
    for (const StoreSpec &sp : specs) {
        const std::size_t pair = sp.src * n + sp.dst;
        stores.push_back(Store{sp.due, srcPage[pair] + 4 * sp.word,
                               dstPage[pair] + 4 * sp.word, sp.src,
                               sp.dst});
    }

    Outcome o;
    o.attempted = stores.size();
    o.first = stores.empty() ? 0 : stores.front().due;
    o.latencies.reserve(stores.size());
    std::vector<std::uint8_t> delivered(stores.size(), 0);
    for (NodeId d = 0; d < n; ++d) {
        sys.node(d).ni.onDelivered = [&, d](const NetPacket &pkt,
                                            Tick when) {
            std::uint32_t v = 0;
            if (pkt.payload.size() == sizeof(v))
                std::memcpy(&v, pkt.payload.data(), sizeof(v));
            if (v == 0 || v > stores.size()) {
                rep.fail("node " + std::to_string(d) +
                         ": a delivered packet matches no store");
                return;
            }
            const Store &s = stores[v - 1];
            if (delivered[v - 1] || s.src != pkt.srcNode || s.dst != d ||
                s.dstPaddr != pkt.dstPaddr) {
                rep.fail("store " + std::to_string(v - 1) +
                         " delivered twice or to the wrong place");
                return;
            }
            delivered[v - 1] = 1;
            o.latencies.push_back(when - s.due);
            o.last = std::max(o.last, when);
        };
    }

    StorePump pump(rep, stores);
    rep.run([&] {
        pump.start();
        sys.runFor((stores.empty() ? 0 : stores.back().due) + drain);
    });

    o.failed = static_cast<std::uint64_t>(
        std::count(delivered.begin(), delivered.end(), 0));
    if (o.failed) {
        rep.fail(std::to_string(o.failed) + " of " +
                 std::to_string(stores.size()) +
                 " stores never delivered");
    }
    // Per pair the path is fixed and delivery in order, so the last
    // store issued to a word is the one memory must hold.
    std::unordered_map<std::uint64_t, std::uint32_t> last;
    for (std::size_t i = 0; i < stores.size(); ++i) {
        last[(std::uint64_t{stores[i].dst} << 32) | stores[i].dstPaddr] =
            static_cast<std::uint32_t>(i + 1);
    }
    for (auto [key, value] : last) {
        const auto node = static_cast<NodeId>(key >> 32);
        const Addr paddr = key & 0xffff'ffffULL;
        if (sys.node(node).mem.readInt(paddr, 4) != value) {
            rep.fail("node " + std::to_string(node) + " paddr " +
                     std::to_string(paddr) +
                     " does not hold the last value stored to it");
        }
    }
    o.opBytes = 4.0 * static_cast<double>(o.attempted - o.failed);
    return o;
}

/** bench_overload's congestion stack: AIMD windows, ECN marks echoed
 *  on ACKs, paced and jittered retransmissions, a small receive FIFO
 *  and the progress watchdog. */
SystemConfig
overloadConfig()
{
    SystemConfig cfg = SystemConfig::paper16();
    cfg.ni.reliability.enabled = true;
    cfg.ni.reliability.congestion.enabled = true;
    cfg.ni.reliability.congestion.paceBucketPackets = 8;
    cfg.ni.reliability.congestion.rtoJitterPermille = 250;
    cfg.router.ecnThresholdPackets = 3;
    cfg.ni.inFifo = PacketFifo::Params{8 * 1024, 6 * 1024, 3 * 1024};
    cfg.ni.watchdogPeriod = 2 * ONE_MS;
    return cfg;
}

constexpr std::uint32_t kPageWords = PAGE_SIZE / 4;

/**
 * 15 senders fire 100-store bursts of 4-byte AUTO_SINGLE stores at
 * node 0 at 300% of nominal saturation (bench_overload's 100% is one
 * packet per microsecond arriving at the hot node), then pause 2 ms.
 * The pauses drain the backlog, so latency does not grow with run
 * length as it does under sustained overload.
 */
Outcome
incastBurst(Rep &rep)
{
    const SystemConfig cfg = overloadConfig();
    const unsigned n = cfg.numNodes();
    const unsigned bursts = rep.scaled(133);
    constexpr unsigned perBurst = 100;
    constexpr Tick spacing = 5 * ONE_US;
    constexpr Tick period = perBurst * spacing + 2 * ONE_MS;

    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::vector<StoreSpec> specs;
    for (NodeId s = 1; s < n; ++s) {
        pairs.emplace_back(s, 0);
        for (unsigned b = 0; b < bursts; ++b) {
            const Tick start = b * period + rep.rng.below(100 * ONE_US);
            for (unsigned k = 0; k < perBurst; ++k) {
                specs.push_back(StoreSpec{
                    start + k * spacing, s, 0,
                    static_cast<std::uint32_t>(rep.rng.below(kPageWords))});
            }
        }
    }
    return runStores(rep, cfg, pairs, std::move(specs), 50 * ONE_MS);
}

/**
 * 8x8 mesh, all 4032 ordered pairs mapped AUTO_SINGLE, no reliability
 * layer: every node stores to a uniformly random peer every 2 us.
 */
Outcome
uniform8x8(Rep &rep)
{
    SystemConfig cfg;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    const unsigned n = cfg.numNodes();
    const unsigned perNode = rep.scaled(4000);
    constexpr Tick interval = 2 * ONE_US;

    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s != d)
                pairs.emplace_back(s, d);
        }
    }
    std::vector<StoreSpec> specs;
    specs.reserve(std::size_t{n} * perNode);
    for (NodeId s = 0; s < n; ++s) {
        const Tick phase = rep.rng.below(interval);
        for (unsigned k = 0; k < perNode; ++k) {
            auto d = static_cast<NodeId>(rep.rng.below(n - 1));
            if (d >= s)
                ++d;
            specs.push_back(StoreSpec{
                phase + k * interval, s, d,
                static_cast<std::uint32_t>(rep.rng.below(kPageWords))});
        }
    }
    return runStores(rep, cfg, pairs, std::move(specs), ONE_MS);
}

// ---------------------------------------------------------------------
// Closed-loop workloads
// ---------------------------------------------------------------------

/**
 * paper16 on the EISA receive path: each rank's CPU program deliberate-
 * sends its 15 pages per round through command pages, claiming the DMA
 * engine with CMPXCHG and polling for completion, in a seeded order
 * per round. One op is one page, from its first packet's injection to
 * the delivery of its last.
 */
Outcome
allToAllDeliberate(Rep &rep)
{
    const SystemConfig cfg = SystemConfig::paper16();
    const unsigned n = cfg.numNodes();
    const unsigned peers = n - 1;
    const unsigned rounds = rep.scaled(50);
    auto slot = [](NodeId me, NodeId peer) {
        return peer < me ? peer : peer - 1;
    };

    // Inputs: one page of data per ordered pair, and every rank's send
    // order, a fresh permutation of its peers each round.
    std::vector<std::vector<std::uint32_t>> data(n * n);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            data[i * n + j].resize(kPageWords);
            for (std::uint32_t &w : data[i * n + j])
                w = static_cast<std::uint32_t>(rep.rng.next());
        }
    }
    std::vector<std::vector<NodeId>> order(n);
    for (NodeId i = 0; i < n; ++i) {
        for (unsigned r = 0; r < rounds; ++r) {
            std::vector<NodeId> perm;
            for (NodeId j = 0; j < n; ++j) {
                if (j != i)
                    perm.push_back(j);
            }
            for (std::size_t k = perm.size() - 1; k > 0; --k)
                std::swap(perm[k], perm[rep.rng.below(k + 1)]);
            order[i].insert(order[i].end(), perm.begin(), perm.end());
        }
    }

    ShrimpSystem &sys = rep.boot(cfg);
    std::vector<Process *> procs(n);
    std::vector<Addr> sendBase(n), recvBase(n);
    for (NodeId i = 0; i < n; ++i) {
        procs[i] = rep.createProcess(i, "rank" + std::to_string(i));
        sendBase[i] = procs[i]->allocate(peers);
        recvBase[i] = procs[i]->allocate(peers);
    }
    // Destination frame (node << 32 | frame) -> pair index i * n + j.
    std::unordered_map<std::uint64_t, std::size_t> pairOf;
    std::vector<Addr> recvPaddr(n * n, 0);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const Addr dv = recvBase[j] + slot(j, i) * PAGE_SIZE;
            rep.mapDirect(i, *procs[i], sendBase[i] + slot(i, j) * PAGE_SIZE,
                          j, *procs[j], dv, UpdateMode::DELIBERATE);
            recvPaddr[i * n + j] =
                procs[j]->space().translate(dv, false).paddr;
            pairOf[(std::uint64_t{j} << 32) |
                   pageOf(recvPaddr[i * n + j])] = i * n + j;
        }
    }
    std::vector<Addr> cmdBase(n);
    for (NodeId i = 0; i < n; ++i)
        cmdBase[i] = rep.mapCommandPages(i, *procs[i], sendBase[i], peers);
    rep.fill([&] {
        for (NodeId i = 0; i < n; ++i) {
            for (NodeId j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                Translation t = procs[i]->space().translate(
                    sendBase[i] + slot(i, j) * PAGE_SIZE, true);
                sys.node(i).mem.write(t.paddr, data[i * n + j].data(),
                                      PAGE_SIZE);
            }
        }
    });
    for (NodeId i = 0; i < n; ++i) {
        const std::int64_t delta = static_cast<std::int64_t>(cmdBase[i]) -
                                   static_cast<std::int64_t>(sendBase[i]);
        Program p("rank" + std::to_string(i));
        for (std::size_t k = 0; k < order[i].size(); ++k) {
            const std::string tag = std::to_string(k);
            p.movi(R3, sendBase[i] + slot(i, order[i][k]) * PAGE_SIZE);
            p.movi(R1, PAGE_SIZE);
            msg::emitDeliberateSendSingle(p, delta, "snd" + tag,
                                          "multi" + tag);
            p.label("multi" + tag);     // unreachable: exactly a page
            p.label("wait" + tag);
            msg::emitDeliberateCheck(p);
            p.jnz("wait" + tag);
        }
        p.halt();
        rep.loadProgram(i, *procs[i], std::move(p));
    }

    Outcome o;
    o.attempted = std::uint64_t{rounds} * n * peers;
    o.latencies.reserve(o.attempted);
    struct PageTrack
    {
        Tick start = 0;
        Addr bytes = 0;
    };
    std::vector<PageTrack> track(n * n);
    std::uint64_t deliveredBytes = 0;
    for (NodeId j = 0; j < n; ++j) {
        sys.node(j).ni.onDelivered = [&, j](const NetPacket &pkt,
                                            Tick when) {
            auto it = pairOf.find((std::uint64_t{j} << 32) |
                                  pageOf(pkt.dstPaddr));
            if (it == pairOf.end()) {
                rep.fail("node " + std::to_string(j) +
                         ": packet for an unmapped page");
                return;
            }
            // Pages of one pair travel one fixed path in order, so a
            // page's first packet always follows the previous page's
            // last.
            PageTrack &t = track[it->second];
            const Addr off = pageOffset(pkt.dstPaddr);
            // Every round resends the same page, so memory only shows
            // the last round; check each packet's payload on the way.
            const auto *want = reinterpret_cast<const std::uint8_t *>(
                                   data[it->second].data()) +
                               off;
            if (off + pkt.payload.size() > PAGE_SIZE ||
                !std::equal(pkt.payload.begin(), pkt.payload.end(), want)) {
                rep.fail("node " + std::to_string(j) +
                         ": a page packet carries the wrong bytes");
            }
            if (off == 0) {
                t.start = pkt.injectedAt;
                t.bytes = 0;
            }
            t.bytes += pkt.payload.size();
            deliveredBytes += pkt.payload.size();
            if (off + pkt.payload.size() == PAGE_SIZE) {
                if (t.bytes != PAGE_SIZE)
                    rep.fail("a page arrived incomplete");
                o.latencies.push_back(when - t.start);
                o.first = std::min(o.first, t.start);
                o.last = std::max(o.last, when);
            }
        };
    }

    bool exited = false;
    rep.run([&] {
        sys.startAll();
        exited = sys.runUntilAllExited(60 * ONE_SEC, 4'000'000'000ULL);
        sys.runFor(10 * ONE_MS);
    });

    if (!exited)
        rep.fail("not every rank exited");
    o.failed = o.attempted - std::min<std::uint64_t>(o.attempted,
                                                     o.latencies.size());
    if (o.failed)
        rep.fail(std::to_string(o.failed) + " pages never completed");
    if (deliveredBytes != o.attempted * PAGE_SIZE) {
        rep.fail("delivered " + std::to_string(deliveredBytes) +
                 " bytes, expected rounds x 240 x 4096 = " +
                 std::to_string(o.attempted * PAGE_SIZE));
    }
    std::vector<std::uint32_t> got(kPageWords);
    for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            sys.node(j).mem.read(recvPaddr[i * n + j], got.data(),
                                 PAGE_SIZE);
            if (got != data[i * n + j]) {
                rep.fail("page " + std::to_string(i) + "->" +
                         std::to_string(j) + " is not byte-exact");
            }
        }
    }
    o.opBytes = static_cast<double>(o.latencies.size() * PAGE_SIZE);
    return o;
}

/**
 * One node's closed-loop acquire sequence: each acquire issues a
 * think time after the previous one completed, from one embedded
 * event. One op is one acquire, from the call to its callback. An
 * acquire whose callback runs inside the call was a local hit: it
 * counts as completed but adds no latency sample, so the percentiles
 * describe DSM faults rather than the hit rate.
 */
class Acquirer
{
  public:
    struct Op
    {
        std::uint32_t page;
        bool write;
        Tick think;     //!< compute time before this acquire
    };
    using OnGrant = std::function<void(NodeId, const Op &)>;

    Acquirer(Rep &rep, NodeId node, std::vector<Op> ops, Outcome &o,
             OnGrant on_grant)
        : _rep(rep), _node(node), _ops(std::move(ops)), _o(o),
          _onGrant(std::move(on_grant)),
          _event([this] { issue(); }, "simcore acquire")
    {}

    void
    start()
    {
        if (!_ops.empty())
            _rep.sys().eventQueue().schedule(&_event, _ops[0].think);
    }

    bool finished() const { return _next == _ops.size(); }

    std::uint64_t
    unfinished() const
    {
        return _ops.size() - _next;
    }

  private:
    void
    issue()
    {
        const Op &op = _ops[_next];
        _issuedAt = _rep.sys().curTick();
        _inCall = true;
        _rep.acquire(_node, op.page, op.write,
                     [this](std::uint64_t status) { complete(status); });
        _inCall = false;
    }

    void
    complete(std::uint64_t status)
    {
        const Tick now = _rep.sys().curTick();
        const Op &op = _ops[_next++];
        if (status == err::OK) {
            if (_inCall)
                ++_o.localHits;
            else
                _o.latencies.push_back(now - _issuedAt);
            _onGrant(_node, op);
        } else {
            ++_o.failed;
        }
        _o.first = std::min(_o.first, _issuedAt);
        _o.last = std::max(_o.last, now);
        if (_next < _ops.size()) {
            _rep.sys().eventQueue().schedule(&_event,
                                             now + _ops[_next].think);
        }
    }

    Rep &_rep;
    NodeId _node;
    std::vector<Op> _ops;
    Outcome &_o;
    OnGrant _onGrant;
    std::size_t _next = 0;
    Tick _issuedAt = 0;
    bool _inCall = false;
    EventFunctionWrapper _event;
};

/** 10 us of think time on average, seeded. */
Tick
thinkTime(Rng &rng)
{
    return 5 * ONE_US + rng.below(10 * ONE_US);
}

/** Start every acquirer and run until all finish, then drain. */
void
runAcquirers(Rep &rep, Outcome &o,
             const std::vector<std::unique_ptr<Acquirer>> &acquirers)
{
    ShrimpSystem &sys = rep.sys();
    auto finished = [&] {
        return std::all_of(acquirers.begin(), acquirers.end(),
                           [](const auto &d) { return d->finished(); });
    };
    rep.run([&] {
        for (const auto &d : acquirers)
            d->start();
        while (!finished() && sys.curTick() < 60 * ONE_SEC)
            sys.runFor(ONE_MS);
        sys.runFor(ONE_MS);
    });
    std::uint64_t stuck = 0;
    for (const auto &d : acquirers)
        stuck += d->unfinished();
    if (stuck)
        rep.fail(std::to_string(stuck) + " acquires never completed");
    o.failed += stuck;
    if (o.failed)
        rep.fail(std::to_string(o.failed) + " acquires failed");
    o.dsmPages = true;
}

/**
 * 4x4, DSM on: node i owns a strip of 2 pages. Each round it
 * write-acquires its strip and read-acquires the boundary page of each
 * ring neighbour, so every acquire is a boundary acquire: reads fetch
 * from the owner and the next write shoots the readers down.
 */
Outcome
dsmStencil(Rep &rep)
{
    SystemConfig cfg = SystemConfig::paper16();
    cfg.dsm.enabled = true;
    const unsigned n = cfg.numNodes();
    constexpr unsigned strip = 2;
    cfg.dsm.numPages = n * strip;
    const unsigned rounds = rep.scaled(160);

    std::vector<std::vector<Acquirer::Op>> ops(n);
    for (NodeId id = 0; id < n; ++id) {
        const NodeId left = (id + n - 1) % n;
        const NodeId right = (id + 1) % n;
        for (unsigned r = 0; r < rounds; ++r) {
            for (unsigned k = 0; k < strip; ++k)
                ops[id].push_back({id * strip + k, true, thinkTime(rep.rng)});
            ops[id].push_back(
                {left * strip + strip - 1, false, thinkTime(rep.rng)});
            ops[id].push_back({right * strip, false, thinkTime(rep.rng)});
        }
    }

    ShrimpSystem &sys = rep.boot(cfg);
    Outcome o;
    std::vector<std::uint32_t> version(cfg.dsm.numPages, 0);
    // Writers stamp a fresh version into word 0; every read must see
    // the last version written.
    auto onGrant = [&](NodeId node, const Acquirer::Op &op) {
        const Addr word =
            pageBase(sys.kernel(node).dsm()->localFrame(op.page));
        if (op.write) {
            sys.node(node).mem.writeInt(word, ++version[op.page], 4);
        } else if (sys.node(node).mem.readInt(word, 4) !=
                   version[op.page]) {
            rep.fail("node " + std::to_string(node) + " read a stale page " +
                     std::to_string(op.page));
        }
    };
    std::vector<std::unique_ptr<Acquirer>> acquirers;
    for (NodeId id = 0; id < n; ++id) {
        o.attempted += ops[id].size();
        acquirers.push_back(std::make_unique<Acquirer>(
            rep, id, std::move(ops[id]), o, onGrant));
    }
    runAcquirers(rep, o, acquirers);
    return o;
}

/**
 * 4x4, DSM on: each node write-acquires one of 4 hot pages and
 * increments the counter in it: owner recall, writeback and exclusive
 * grant on nearly every acquire. Each node visits the pages in a fresh
 * seeded order every 4 acquires, so the load per page is balanced and
 * the tail reflects the protocol, not a lopsided draw.
 */
Outcome
dsmMigratory(Rep &rep)
{
    SystemConfig cfg = SystemConfig::paper16();
    cfg.dsm.enabled = true;
    constexpr std::uint32_t hot = 4;
    cfg.dsm.numPages = hot;
    const unsigned n = cfg.numNodes();
    const unsigned perNode = rep.scaled(240);

    std::vector<std::vector<Acquirer::Op>> ops(n);
    for (NodeId id = 0; id < n; ++id) {
        std::array<std::uint32_t, hot> pages{0, 1, 2, 3};
        for (unsigned k = 0; k < perNode; ++k) {
            if (k % hot == 0) {
                for (std::uint32_t i = hot - 1; i > 0; --i)
                    std::swap(pages[i], pages[rep.rng.below(i + 1)]);
            }
            ops[id].push_back({pages[k % hot], true, thinkTime(rep.rng)});
        }
    }

    ShrimpSystem &sys = rep.boot(cfg);
    Outcome o;
    std::vector<std::uint32_t> grants(hot, 0);
    auto onGrant = [&](NodeId node, const Acquirer::Op &op) {
        const Addr word =
            pageBase(sys.kernel(node).dsm()->localFrame(op.page));
        MainMemory &mem = sys.node(node).mem;
        mem.writeInt(word, mem.readInt(word, 4) + 1, 4);
        ++grants[op.page];
    };
    std::vector<std::unique_ptr<Acquirer>> acquirers;
    for (NodeId id = 0; id < n; ++id) {
        o.attempted += ops[id].size();
        acquirers.push_back(std::make_unique<Acquirer>(
            rep, id, std::move(ops[id]), o, onGrant));
    }
    runAcquirers(rep, o, acquirers);

    // The counter lives with the exclusive holder, or at the home if
    // the page was never granted.
    for (std::uint32_t page = 0; page < hot; ++page) {
        NodeId holder = sys.kernel(0).dsm()->homeNode(page);
        PageNum frame = sys.kernel(holder).dsm()->homeFrameOf(page);
        for (NodeId id = 0; id < n; ++id) {
            Dsm &d = *sys.kernel(id).dsm();
            if (d.localState(page) == DsmPageState::WRITE_EXCLUSIVE) {
                holder = id;
                frame = d.localFrame(page);
            }
        }
        const std::uint64_t counter =
            sys.node(holder).mem.readInt(pageBase(frame), 4);
        if (counter != grants[page]) {
            rep.fail("hot page " + std::to_string(page) + " counter " +
                     std::to_string(counter) + " != " +
                     std::to_string(grants[page]) + " writes granted");
        }
    }
    return o;
}

// ---------------------------------------------------------------------
// Repetitions in child processes
// ---------------------------------------------------------------------

struct Workload
{
    const char *name;
    Outcome (*run)(Rep &);
};

const std::array<Workload, 5> kWorkloads = {{
    {"incast_burst", incastBurst},
    {"uniform_8x8", uniform8x8},
    {"a2a_deliberate", allToAllDeliberate},
    {"dsm_stencil", dsmStencil},
    {"dsm_migratory", dsmMigratory},
}};

/** The traced pass runs each workload at this fraction of --scale, so
 *  the in-memory trace and its parse stay well under 1 GB. */
constexpr double kTracedScale = 1.0 / 20;

std::string
serialize(const RepResult &r)
{
    std::ostringstream os;
    os << "a " << r.attempted << ' ' << r.failed << '\n'
       << "f " << r.fingerprint << '\n';
    for (const Metric &m : r.metrics) {
        os << "m " << (m.host ? 'h' : 'x') << ' ' << m.name << ' '
           << m.unit << ' ' << numText(m.value) << '\n';
    }
    for (const SpanLog::Span &s : r.spans) {
        os << "s " << s.parent << ' ' << s.start << ' ' << s.end << ' '
           << s.name << '\n';
    }
    for (std::string e : r.errors) {
        std::replace(e.begin(), e.end(), '\n', ' ');
        os << "e " << e << '\n';
    }
    return os.str();
}

RepResult
deserialize(const std::string &text)
{
    RepResult r;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        char tag = 0;
        ls >> tag;
        if (tag == 'a') {
            ls >> r.attempted >> r.failed;
        } else if (tag == 'f') {
            ls >> r.fingerprint;
        } else if (tag == 'm') {
            Metric m;
            char kind = 0;
            std::string value;
            ls >> kind >> m.name >> m.unit >> value;
            m.host = kind == 'h';
            std::from_chars(value.data(), value.data() + value.size(),
                            m.value);
            r.metrics.push_back(std::move(m));
        } else if (tag == 's') {
            SpanLog::Span s;
            ls >> s.parent >> s.start >> s.end >> s.name;
            r.spans.push_back(std::move(s));
        } else if (tag == 'e') {
            r.errors.push_back(line.substr(2));
        }
    }
    return r;
}

/**
 * Run one repetition in a forked child and wait for it: a fresh heap
 * per repetition, and ru_maxrss from wait4 is that repetition's own
 * peak. Children run one at a time; the benchmark stays sequential.
 */
RepResult
inChild(const Workload &w, std::uint64_t seed, double scale, bool traced)
{
    int fds[2];
    if (pipe(fds) != 0) {
        RepResult r;
        r.errors.push_back(std::string("pipe: ") + std::strerror(errno));
        return r;
    }
    std::cout.flush();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        RepResult r;
        r.errors.push_back(std::string("fork: ") + std::strerror(errno));
        return r;
    }
    if (pid == 0) {
        close(fds[0]);
        std::string out;
        try {
            Rep rep(seed, scale, traced);
            Outcome o = w.run(rep);
            out = serialize(rep.finish(std::move(o)));
        } catch (const std::exception &e) {
            RepResult r;
            r.errors.push_back(std::string("exception: ") + e.what());
            out = serialize(r);
        }
        std::size_t off = 0;
        while (off < out.size()) {
            ssize_t k = write(fds[1], out.data() + off, out.size() - off);
            if (k <= 0 && errno != EINTR)
                _exit(3);
            if (k > 0)
                off += static_cast<std::size_t>(k);
        }
        close(fds[1]);
        _exit(0);
    }

    close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        ssize_t k = read(fds[0], buf, sizeof(buf));
        if (k > 0)
            text.append(buf, static_cast<std::size_t>(k));
        else if (k == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    RepResult r = deserialize(text);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        r.errors.push_back("repetition process ended abnormally "
                           "(wait status " +
                           std::to_string(status) + ")");
    }
    r.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------
// Aggregation and output
// ---------------------------------------------------------------------

struct Options
{
    std::string workload = "all";
    std::uint64_t seed = 1;
    double scale = 1;
    unsigned reps = 3;
    double seconds = 0;
    bool traced = false;
    std::string jsonPath = "BENCH_simcore.json";
    std::string spansPath = "BENCH_simcore.spans.json";
};

/** One workload's aggregated result. */
struct Report
{
    std::string name;
    unsigned reps = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t fingerprint = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;
    /** (thread label, spans) per child, for the span file. */
    std::vector<std::pair<std::string, std::vector<SpanLog::Span>>> spans;
};

constexpr unsigned kMaxReps = 200;

Report
measure(const Workload &w, const Options &opt)
{
    Report rep;
    rep.name = w.name;
    std::vector<RepResult> runs;
    const std::uint64_t t0 = hostNs();
    while (runs.size() < kMaxReps &&
           (runs.size() < opt.reps ||
            static_cast<double>(hostNs() - t0) * 1e-9 < opt.seconds)) {
        runs.push_back(inChild(w, opt.seed, opt.scale, false));
    }
    rep.reps = static_cast<unsigned>(runs.size());

    const RepResult &base = runs[0];
    rep.fingerprint = base.fingerprint;
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const RepResult &r = runs[k];
        for (const std::string &e : r.errors)
            rep.errors.push_back("rep " + std::to_string(k) + ": " + e);
        rep.attempted += r.attempted;
        rep.failed += r.failed;
        rep.spans.emplace_back("rep " + std::to_string(k), r.spans);
        if (r.fingerprint != base.fingerprint) {
            rep.errors.push_back("rep " + std::to_string(k) +
                                 ": stats fingerprint differs from rep 0");
        }
    }
    // Host metrics: the median over repetitions. Simulated metrics: the
    // determinism gate, every repetition must agree exactly.
    for (const Metric &m : base.metrics) {
        std::vector<double> values;
        for (const RepResult &r : runs) {
            const Metric *other = r.find(m.name);
            if (other)
                values.push_back(other->value);
        }
        if (values.size() != runs.size()) {
            rep.errors.push_back(m.name + " missing from a repetition");
            continue;
        }
        Metric out = m;
        if (m.host) {
            out.value = median(values);
            out.samples = values;
        } else if (std::any_of(values.begin(), values.end(),
                               [&](double v) { return v != m.value; })) {
            rep.errors.push_back(m.name + " differs between repetitions");
        }
        rep.metrics.push_back(out);
    }
    std::vector<double> rss;
    for (const RepResult &r : runs)
        rss.push_back(r.peakRssMb);
    // Listed with the other end-to-end host metrics.
    auto at = std::find_if(
        rep.metrics.begin(), rep.metrics.end(),
        [](const Metric &m) { return m.name == "op_samples"; });
    rep.metrics.insert(at,
                       Metric{"peak_rss_mb", median(rss), "MB", true, rss});

    if (opt.traced) {
        // Same workload at traced scale, untraced then traced: tracing
        // must not change the simulation, and the difference in run
        // time is the tracer's overhead.
        const double ts = opt.scale * kTracedScale;
        RepResult plain = inChild(w, opt.seed, ts, false);
        RepResult traced = inChild(w, opt.seed, ts, true);
        for (const std::string &e : plain.errors)
            rep.errors.push_back("traced-scale rep: " + e);
        for (const std::string &e : traced.errors)
            rep.errors.push_back("traced rep: " + e);
        if (plain.fingerprint != traced.fingerprint) {
            rep.errors.push_back("tracing changed the stats fingerprint");
        }
        rep.spans.emplace_back("traced-scale rep", plain.spans);
        rep.spans.emplace_back("traced rep", traced.spans);
        for (const Metric &m : traced.metrics) {
            if (m.name.rfind("stage.", 0) == 0)
                rep.metrics.push_back(m);
        }
        const Metric *a = plain.find("run_s");
        const Metric *b = traced.find("run_s");
        if (a && b && a->value > 0) {
            rep.metrics.push_back(Metric{"trace.overhead_frac",
                                         b->value / a->value - 1, "frac",
                                         true, {}});
        }
    }
    return rep;
}

void
writeJson(const Options &opt, const std::vector<Report> &reports,
          bool ok)
{
    std::ofstream out(opt.jsonPath);
    out << "{\n  \"schema_version\": 1,\n  \"bench\": \"simcore\",\n"
        << "  \"seed\": " << opt.seed << ",\n  \"scale\": "
        << numText(opt.scale) << ",\n  \"min_reps\": " << opt.reps
        << ",\n  \"seconds\": " << numText(opt.seconds)
        << ",\n  \"traced\": " << (opt.traced ? "true" : "false")
        << ",\n  \"correct\": " << (ok ? "true" : "false")
        << ",\n  \"workloads\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const Report &r = reports[i];
        char fp[24];
        std::snprintf(fp, sizeof(fp), "0x%016llx",
                      static_cast<unsigned long long>(r.fingerprint));
        out << (i ? ",\n" : "\n") << "    {\"name\": \"" << r.name
            << "\", \"reps\": " << r.reps << ", \"attempted\": "
            << r.attempted << ", \"failed\": " << r.failed
            << ", \"fingerprint\": \"" << fp << "\",\n     \"errors\": [";
        for (std::size_t e = 0; e < r.errors.size(); ++e) {
            out << (e ? ", " : "") << "\"" << json::escape(r.errors[e])
                << "\"";
        }
        out << "],\n     \"metrics\": {";
        for (std::size_t m = 0; m < r.metrics.size(); ++m) {
            const Metric &x = r.metrics[m];
            out << (m ? ",\n       " : "\n       ") << "\""
                << json::escape(x.name) << "\": {\"value\": "
                << numText(x.value) << ", \"unit\": \""
                << json::escape(x.unit) << "\", \"clock\": \""
                << (x.host ? "host" : "simulated") << "\"";
            if (!x.samples.empty()) {
                out << ", \"samples\": [";
                for (std::size_t k = 0; k < x.samples.size(); ++k)
                    out << (k ? ", " : "") << numText(x.samples[k]);
                out << "]";
            }
            out << "}";
        }
        out << "}}";
    }
    out << "\n  ]\n}\n";
}

/** The host spans of every child as Chrome trace events: one process
 *  per workload, one thread per repetition. */
void
writeSpans(const std::string &path, const std::vector<Report> &reports)
{
    std::uint64_t origin = ~std::uint64_t{0};
    for (const Report &r : reports) {
        for (const auto &[label, spans] : r.spans) {
            for (const SpanLog::Span &s : spans)
                origin = std::min(origin, s.start);
        }
    }
    auto us = [&](std::uint64_t ns) {
        return numText(static_cast<double>(ns - origin) / 1e3);
    };
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() -> std::ofstream & {
        out << (first ? "\n" : ",\n");
        first = false;
        return out;
    };
    for (std::size_t p = 0; p < reports.size(); ++p) {
        sep() << "{\"ph\":\"M\",\"pid\":" << p
              << ",\"tid\":0,\"name\":\"process_name\",\"args\":"
                 "{\"name\":\""
              << reports[p].name << "\"}}";
        for (std::size_t t = 0; t < reports[p].spans.size(); ++t) {
            const auto &[label, spans] = reports[p].spans[t];
            sep() << "{\"ph\":\"M\",\"pid\":" << p << ",\"tid\":" << t
                  << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                  << label << "\"}}";
            for (const SpanLog::Span &s : spans) {
                const std::string parent =
                    s.parent < 0
                        ? ""
                        : spans[static_cast<std::size_t>(s.parent)].name;
                sep() << "{\"ph\":\"X\",\"pid\":" << p << ",\"tid\":" << t
                      << ",\"name\":\"" << json::escape(s.name)
                      << "\",\"ts\":" << us(s.start)
                      << ",\"dur\":"
                      << numText(static_cast<double>(s.end - s.start) /
                                 1e3)
                      << ",\"args\":{\"parent\":\""
                      << json::escape(parent) << "\"}}";
            }
        }
    }
    out << "\n]}\n";
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: bench_simcore [--workload NAME|all] [--seed S] "
                 "[--scale F] [--reps N] [--seconds T] [--traced] "
                 "[--json FILE] [--spans FILE]\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << ' ' << w.name;
    std::cerr << '\n';
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--scale")
                opt.scale = std::stod(value());
            else if (a == "--reps")
                opt.reps = static_cast<unsigned>(std::stoul(value()));
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--traced")
                opt.traced = true;
            else if (a == "--json")
                opt.jsonPath = value();
            else if (a == "--spans")
                opt.spansPath = value();
            else
                usage();
        } catch (const std::exception &) {
            usage();
        }
    }
    if (!(opt.scale > 0) || opt.reps == 0 || !(opt.seconds >= 0))
        usage();
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::vector<const Workload *> chosen;
    for (const Workload &w : kWorkloads) {
        if (opt.workload == "all" || opt.workload == w.name)
            chosen.push_back(&w);
    }
    if (chosen.empty())
        usage();

    std::vector<Report> reports;
    bool ok = true;
    for (const Workload *w : chosen) {
        reports.push_back(measure(*w, opt));
        const Report &r = reports.back();
        std::cout << "# " << r.name << ": " << r.reps << " reps, "
                  << r.attempted << " ops attempted, " << r.failed
                  << " failed\n";
        for (const Metric &m : r.metrics) {
            std::cout << r.name << ' ' << m.name << ' '
                      << numText(m.value) << ' ' << m.unit << '\n';
        }
        for (const std::string &e : r.errors) {
            std::cerr << r.name << ": FAILED: " << e << '\n';
            ok = false;
        }
        std::cout.flush();
    }
    writeJson(opt, reports, ok);
    writeSpans(opt.spansPath, reports);
    std::cout << "simcore: " << (ok ? "OK" : "FAILED") << '\n';
    return ok ? 0 : 1;
}
