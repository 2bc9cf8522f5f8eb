/**
 * @file
 * Unit tests for the stats package and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <map>
#include <sstream>

#include "sim/json.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace shrimp
{
namespace
{

TEST(Stats, CounterAccumulates)
{
    stats::Counter c("pkts", "packets");
    ++c;
    c += 9;
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionMoments)
{
    stats::Distribution d("lat", "latency");
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 4.0);
    EXPECT_NEAR(d.stddev(), 1.118, 0.001);
}

TEST(Stats, DistributionStddevNoCancellation)
{
    // Regression: the old sum-of-squares formula computed
    // sum(x^2)/n - mean^2, which cancels catastrophically when
    // mean >> stddev -- for samples near 1e12 with unit spread the
    // squares agree to ~24 digits and a double keeps ~16, so the
    // subtraction returned garbage (often 0, sometimes NaN from a
    // negative variance). Welford's update has no such subtraction.
    stats::Distribution d("lat", "latency");
    for (double off : {0.0, 1.0, 2.0})
        d.sample(1e12 + off);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 1e12 + 1.0);
    // Population stddev of {0,1,2} is sqrt(2/3).
    EXPECT_NEAR(d.stddev(), std::sqrt(2.0 / 3.0), 1e-9);
    EXPECT_FALSE(std::isnan(d.stddev()));
}

TEST(Stats, DistributionResetRestartsMoments)
{
    stats::Distribution d("lat", "latency");
    d.sample(100.0);
    d.sample(300.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    d.sample(5.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 5.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 5.0);
}

TEST(Stats, PeakTracksAndResets)
{
    stats::Peak p("peak", "high-water mark");
    p.observe(10.0);
    p.observe(4.0);
    EXPECT_DOUBLE_EQ(p.value(), 10.0);
    p.reset();
    EXPECT_DOUBLE_EQ(p.value(), 0.0);
    p.observe(3.0);
    EXPECT_DOUBLE_EQ(p.value(), 3.0);
}

TEST(Stats, HistogramLog2Buckets)
{
    EXPECT_EQ(stats::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(stats::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(stats::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(stats::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(stats::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(stats::Histogram::bucketLow(0), 0u);
    EXPECT_EQ(stats::Histogram::bucketLow(1), 1u);
    EXPECT_EQ(stats::Histogram::bucketLow(3), 4u);

    stats::Histogram h("depth", "queue depth");
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull})
        h.sample(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
    ASSERT_GT(h.buckets().size(), 10u);
    EXPECT_EQ(h.buckets()[0], 1u);      // the 0
    EXPECT_EQ(h.buckets()[1], 1u);      // the 1
    EXPECT_EQ(h.buckets()[2], 2u);      // 2 and 3
    EXPECT_EQ(h.buckets()[10], 1u);     // 1000 in [512, 1024)
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(Stats, GroupDumpJsonParses)
{
    stats::Group root("node0");
    stats::Group child("nic", &root);
    stats::Counter c("pkts", "packets sent");
    stats::Distribution d("lat", "latency");
    stats::Histogram h("depth", "queue depth");
    child.addStat(&c);
    child.addStat(&d);
    child.addStat(&h);
    c += 3;
    d.sample(10.0);
    d.sample(20.0);
    h.sample(5);

    std::ostringstream os;
    root.dumpJson(os);
    json::Value v = json::parse(os.str());
    ASSERT_TRUE(v.isObject());

    const json::Value *pkts = v.find("node0.nic.pkts");
    ASSERT_TRUE(pkts && pkts->isNumber());
    EXPECT_DOUBLE_EQ(pkts->number, 3.0);

    const json::Value *lat = v.find("node0.nic.lat");
    ASSERT_TRUE(lat && lat->isObject());
    EXPECT_DOUBLE_EQ(lat->find("mean")->number, 15.0);
    EXPECT_DOUBLE_EQ(lat->find("count")->number, 2.0);

    const json::Value *depth = v.find("node0.nic.depth");
    ASSERT_TRUE(depth && depth->isObject());
    const json::Value *buckets = depth->find("buckets");
    ASSERT_TRUE(buckets && buckets->isArray());
    ASSERT_EQ(buckets->arr.size(), 1u);
    EXPECT_DOUBLE_EQ(buckets->arr[0].find("ge")->number, 4.0);
    EXPECT_DOUBLE_EQ(buckets->arr[0].find("count")->number, 1.0);
}

TEST(Json, ParseRoundtrip)
{
    json::Value v = json::parse(
        "{\"a\": 1.5, \"b\": [true, null, \"x\\n\"], \"c\": {}}");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
    const json::Value *b = v.find("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->arr.size(), 3u);
    EXPECT_TRUE(b->arr[0].boolean);
    EXPECT_EQ(b->arr[2].str, "x\n");
    EXPECT_TRUE(v.find("c")->isObject());
    EXPECT_THROW(json::parse("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(json::parse("[1, 2"), std::runtime_error);
}

TEST(Stats, EmptyDistributionIsSafe)
{
    stats::Distribution d("lat", "latency");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Stats, GroupDumpContainsPaths)
{
    stats::Group root("node0");
    stats::Group child("nic", &root);
    stats::Counter c("pkts", "packets sent");
    child.addStat(&c);
    c += 3;

    std::ostringstream os;
    root.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("node0.nic.pkts"), std::string::npos);
    EXPECT_NE(out.find("3"), std::string::npos);

    root.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

/** Two nodes' worth of stats: counters at two depths plus one stat
 *  of every non-Counter kind. */
struct SnapshotFixture
{
    stats::Group node0{"node0"};
    stats::Group nic0{"nic", &node0};
    stats::Group retx0{"retx", &nic0};
    stats::Group node12{"node12"};
    stats::Group nic12{"nic", &node12};
    stats::Counter pkts0{"pkts", "packets sent"};
    stats::Counter retx0Pkts{"pkts", "packets retransmitted"};
    stats::Counter pkts12{"pkts", "packets sent"};
    stats::Scalar ratio{"ratio", "a gauge"};
    stats::Peak peak{"peak", "a high-water mark"};
    stats::Distribution lat{"lat", "latency"};
    stats::Histogram depth{"depth", "queue depth"};

    SnapshotFixture()
    {
        nic0.addStat(&pkts0);
        retx0.addStat(&retx0Pkts);
        nic12.addStat(&pkts12);
        for (stats::Stat *s : std::initializer_list<stats::Stat *>{
                 &ratio, &peak, &lat, &depth}) {
            nic0.addStat(s);
        }
        pkts0 += 3;
        retx0Pkts += 5;
        pkts12 += 7;
        ratio = 0.5;
        peak.observe(9.0);
        lat.sample(2.0);
        depth.sample(4);
    }

    stats::Snapshot
    snapshot() const
    {
        stats::Snapshot snap;
        node0.snapshotInto(snap);
        node12.snapshotInto(snap);
        return snap;
    }
};

TEST(StatsSnapshot, StarStaysInOneComponent)
{
    SnapshotFixture f;
    stats::Snapshot snap = f.snapshot();
    EXPECT_EQ(snap.sum("node*.nic.pkts"), 10u);
    EXPECT_EQ(snap.sum("node*.nic.retx.pkts"), 5u);
    EXPECT_EQ(snap.sum("node*.*.pkts"), 10u);
    EXPECT_EQ(snap.sum("node1*.nic.pkts"), 7u);
    // `*` never swallows a `.`: neither across a level nor to the end.
    EXPECT_EQ(snap.sum("node*.pkts"), 0u);
    EXPECT_EQ(snap.sum("node0.*"), 0u);
    EXPECT_EQ(snap.sum("*"), 0u);
    EXPECT_EQ(snap.sum("node*2.nic.pkts"), 7u);
    EXPECT_EQ(snap.sum("*0.*.*"), 3u);
    EXPECT_EQ(snap.sum("*0*.nic.*.*"), 5u);
}

TEST(StatsSnapshot, NoMatchSumsToZero)
{
    SnapshotFixture f;
    stats::Snapshot snap = f.snapshot();
    EXPECT_EQ(snap.sum("node*.nic.pktz"), 0u);
    EXPECT_EQ(snap.sum("router*.pkts"), 0u);
    EXPECT_EQ(snap.sum(""), 0u);
}

TEST(StatsSnapshot, ExactPathSelectsOneCounter)
{
    SnapshotFixture f;
    stats::Snapshot snap = f.snapshot();
    EXPECT_EQ(snap.sum("node0.nic.pkts"), 3u);
    EXPECT_EQ(snap.sum("node12.nic.pkts"), 7u);
    EXPECT_EQ(snap.sum("node0.nic.retx.pkts"), 5u);
    // A prefix of a path is not a match.
    EXPECT_EQ(snap.sum("node0.nic.pk"), 0u);
    EXPECT_EQ(snap.sum("node1.nic.pkts"), 0u);
}

TEST(StatsSnapshot, HoldsOnlyCounters)
{
    SnapshotFixture f;
    stats::Snapshot snap = f.snapshot();
    std::map<std::string, std::uint64_t> want = {
        {"node0.nic.pkts", 3},
        {"node0.nic.retx.pkts", 5},
        {"node12.nic.pkts", 7},
    };
    EXPECT_EQ(snap.values, want);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true, any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        all_equal = all_equal && va == b.next();
        any_diff_seed = any_diff_seed || va != c.next();
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, InRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.inRange(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

} // namespace
} // namespace shrimp
