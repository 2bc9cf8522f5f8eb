/**
 * @file
 * Tests for the observability layer: the Chrome trace-event export,
 * packet lifecycle completeness, span nesting, and the guarantee that
 * enabling tracing perturbs nothing the simulation computes.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/json.hh"

namespace shrimp
{
namespace
{

struct RunResult
{
    std::string stats;          //!< full text dumpStats
    std::string statsJson;      //!< dumpStatsJson
    std::string traceJson;      //!< empty unless traced
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
};

/**
 * The deterministic two-node workload: node 0 maps one page into
 * node 1 (automatic update, single-write mode) and stores 32 words
 * through it.
 */
RunResult
runWorkload(bool traced)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.traceEnabled = traced;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    EXPECT_EQ(sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b,
                                      dst, UpdateMode::AUTO_SINGLE),
              err::OK);

    Program pa("a");
    pa.movi(R1, src);
    for (int i = 0; i < 32; ++i)
        pa.sti(R1, 4 * i, i, 4);
    pa.halt();
    pa.finalize();
    sys.kernel(0).loadAndReady(
        *a, std::make_shared<Program>(std::move(pa)));
    Program pb("b");
    pb.halt();
    pb.finalize();
    sys.kernel(1).loadAndReady(
        *b, std::make_shared<Program>(std::move(pb)));

    sys.startAll();
    sys.runUntilAllExited();
    sys.runFor(ONE_MS);

    RunResult r;
    std::ostringstream stats;
    sys.dumpStats(stats);
    r.stats = stats.str();
    std::ostringstream stats_json;
    sys.dumpStatsJson(stats_json);
    r.statsJson = stats_json.str();
    stats::Snapshot snap = sys.snapshot();
    r.sent = snap.at("node0.ni.pktsSent");
    r.delivered = snap.at("node1.ni.pktsDelivered");
    if (traced) {
        EXPECT_NE(sys.tracer(), nullptr);
        std::ostringstream tj;
        sys.tracer()->exportJson(tj);
        r.traceJson = tj.str();
    } else {
        EXPECT_EQ(sys.tracer(), nullptr);
    }
    return r;
}

TEST(Trace, ExportIsValidTraceEventJson)
{
    RunResult r = runWorkload(true);
    ASSERT_GT(r.sent, 0u);

    json::Value root = json::parse(r.traceJson);
    ASSERT_TRUE(root.isObject());
    const json::Value *events = root.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    ASSERT_FALSE(events->arr.empty());

    bool saw_metadata = false;
    for (const json::Value &ev : events->arr) {
        ASSERT_TRUE(ev.isObject());
        const json::Value *ph = ev.find("ph");
        ASSERT_TRUE(ph && ph->isString());
        if (ph->str == "M") {
            saw_metadata = true;
            continue;
        }
        EXPECT_TRUE(ev.find("ts") != nullptr);
        EXPECT_TRUE(ev.find("name") != nullptr);
        if (ph->str == "X") {
            EXPECT_TRUE(ev.find("dur") != nullptr);
        }
        if (ph->str == "b" || ph->str == "n" || ph->str == "e") {
            EXPECT_TRUE(ev.find("id") != nullptr);
            EXPECT_TRUE(ev.find("cat") != nullptr);
        }
    }
    EXPECT_TRUE(saw_metadata);
}

TEST(Trace, SyncSpansNestPerTrack)
{
    RunResult r = runWorkload(true);
    json::Value root = json::parse(r.traceJson);
    const json::Value *events = root.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    // B/E spans follow stack discipline on each component's track.
    std::map<double, std::vector<std::string>> stacks;
    std::size_t spans = 0;
    for (const json::Value &ev : events->arr) {
        const std::string &ph = ev.find("ph")->str;
        if (ph != "B" && ph != "E")
            continue;
        double tid = ev.find("tid")->number;
        if (ph == "B") {
            stacks[tid].push_back(ev.find("name")->str);
            ++spans;
        } else {
            ASSERT_FALSE(stacks[tid].empty())
                << "E without matching B on tid " << tid;
            EXPECT_EQ(stacks[tid].back(), ev.find("name")->str);
            stacks[tid].pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
    // The boot + the explicit mapDirect produce kernel map spans.
    EXPECT_GT(spans, 0u);
}

TEST(Trace, EveryPacketHasCompleteLifecycle)
{
    RunResult r = runWorkload(true);
    json::Value root = json::parse(r.traceJson);
    const json::Value *events = root.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    struct Flow
    {
        std::set<std::string> steps;
        bool ended = false;
    };
    std::map<std::string, Flow> flows;
    for (const json::Value &ev : events->arr) {
        const std::string &ph = ev.find("ph")->str;
        if (ph != "b" && ph != "n" && ph != "e")
            continue;
        if (ev.find("cat")->str != "packet")
            continue;
        Flow &flow = flows[ev.find("id")->str];
        if (ph == "n")
            flow.steps.insert(ev.find("name")->str);
        else if (ph == "e")
            flow.ended = true;
    }

    // One flow per injected packet, each with the full snoop ->
    // packetize -> inject -> route -> eject -> FIFO -> commit chain.
    EXPECT_EQ(flows.size(), r.sent);
    EXPECT_EQ(r.delivered, r.sent);
    for (const auto &[id, flow] : flows) {
        EXPECT_TRUE(flow.ended) << "flow " << id << " never ended";
        for (const char *step : {"packetized", "inject", "hop",
                                 "eject", "inFifoEnqueue", "commit"}) {
            EXPECT_TRUE(flow.steps.count(step))
                << "flow " << id << " missing step " << step;
        }
    }
}

TEST(Trace, DisabledTracingChangesNothing)
{
    RunResult off1 = runWorkload(false);
    RunResult off2 = runWorkload(false);
    RunResult on = runWorkload(true);

    // The simulation is deterministic...
    ASSERT_EQ(off1.stats, off2.stats);
    // ...and tracing must not perturb it: every statistic -- tick
    // counts, latencies, queue depths -- is byte-identical.
    EXPECT_EQ(off1.stats, on.stats);
    EXPECT_EQ(off1.statsJson, on.statsJson);
    EXPECT_EQ(off1.sent, on.sent);
    EXPECT_EQ(off1.delivered, on.delivered);
}

TEST(Trace, StatsJsonParsesAndHasHistograms)
{
    RunResult r = runWorkload(false);
    json::Value root = json::parse(r.statsJson);
    ASSERT_TRUE(root.isObject());

    const json::Value *hist = root.find("node1.ni.deliveryLatency");
    ASSERT_TRUE(hist && hist->isObject());
    EXPECT_DOUBLE_EQ(hist->find("count")->number,
                     static_cast<double>(r.delivered));
    const json::Value *buckets = hist->find("buckets");
    ASSERT_TRUE(buckets && buckets->isArray());
    EXPECT_FALSE(buckets->arr.empty());

    const json::Value *sent = root.find("node0.ni.pktsSent");
    ASSERT_TRUE(sent && sent->isNumber());
    EXPECT_DOUBLE_EQ(sent->number, static_cast<double>(r.sent));

    // FIFO and router groups ride along in the JSON dump.
    EXPECT_TRUE(root.find("node0.ni.outFifo.maxFillBytes"));
    EXPECT_TRUE(root.find("node1.ni.inFifo.depthPackets"));
}

TEST(Json, NestingDepthIsBounded)
{
    // Hostile input fails as a parse error, not a stack overflow.
    const std::string hostile(100'000, '[');
    EXPECT_THROW(json::parse(hostile), std::runtime_error);

    // Far deeper than any artifact (at most 4 levels) still parses.
    constexpr int depth = 64;
    json::Value v = json::parse(std::string(depth, '[') + "1" +
                                std::string(depth, ']'));
    for (int i = 0; i < depth; ++i) {
        ASSERT_TRUE(v.isArray());
        ASSERT_EQ(v.arr.size(), 1u);
        json::Value inner = std::move(v.arr[0]);
        v = std::move(inner);
    }
    EXPECT_DOUBLE_EQ(v.number, 1.0);
}

} // namespace
} // namespace shrimp
