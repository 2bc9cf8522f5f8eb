/**
 * @file
 * Chaos-soak harness tests: seeded fault schedules must leave the
 * machine consistent, quiescent, and perfectly repeatable, and a
 * fault-tolerant mesh must deliver around a permanently dead link.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/chaos.hh"
#include "sim/json.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

std::string
joinViolations(const ChaosReport &r)
{
    std::string out;
    for (const auto &v : r.violations)
        out += v + "\n";
    return out;
}

//! Ten distinct seeds, every global invariant holds on each.
TEST(ChaosSoak, TenSeedsHoldInvariants)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ChaosParams p;
        p.seed = seed;
        ChaosReport r = runChaos(p);
        const stats::Snapshot &c = r.counters;
        EXPECT_TRUE(r.ok()) << "seed " << seed << ":\n"
                            << joinViolations(r);
        EXPECT_GT(c.sum("chaos.writesIssued"), 0u) << "seed " << seed;
        EXPECT_GT(c.sum("node*.kernel.health.heartbeatsSent"), 0u)
            << "seed " << seed;
        EXPECT_EQ(c.sum("chaos.crashesInjected"), p.crashes)
            << "seed " << seed;
        // Every crash must have been detected by at least one peer.
        EXPECT_GT(c.sum("node*.kernel.health.peersDeclaredDead"), 0u)
            << "seed " << seed;
        // The DSM phase actually ran its schedule.
        EXPECT_GT(c.sum("chaos.dsmOpsIssued"), 0u) << "seed " << seed;
    }
}

//! A wider mesh exercises the route-around paths harder.
TEST(ChaosSoak, ThreeByThreeMesh)
{
    ChaosParams p;
    p.seed = 42;
    p.meshWidth = 3;
    p.meshHeight = 3;
    p.linkFlaps = 5;
    p.writesPerPair = 24;
    ChaosReport r = runChaos(p);
    EXPECT_TRUE(r.ok()) << joinViolations(r);
    EXPECT_GT(r.counters.sum("chaos.writesIssued"), 0u);
}

//! Same seed, same machine: the run is a pure function of the params.
TEST(ChaosSoak, SameSeedIsDeterministic)
{
    ChaosParams p;
    p.seed = 7;
    ChaosReport a = runChaos(p);
    ChaosReport b = runChaos(p);
    EXPECT_TRUE(a.ok()) << joinViolations(a);
    EXPECT_TRUE(b.ok()) << joinViolations(b);
    EXPECT_EQ(a.statsFingerprint, b.statsFingerprint);
    EXPECT_EQ(a.counters.values, b.counters.values);
}

//! Different seeds should produce observably different runs.
TEST(ChaosSoak, DifferentSeedsDiffer)
{
    ChaosParams pa, pb;
    pa.seed = 3;
    pb.seed = 4;
    ChaosReport a = runChaos(pa);
    ChaosReport b = runChaos(pb);
    EXPECT_NE(a.statsFingerprint, b.statsFingerprint);
}

/**
 * The report's counters used to be 25 hand-rolled fields plus endTick.
 * Each is now a stat-path query; a field that summed two counters
 * lists both patterns.
 */
const std::vector<std::pair<const char *, std::vector<const char *>>>
    kRolledUpFields = {
        {"writesIssued", {"chaos.writesIssued"}},
        {"crashesInjected", {"chaos.crashesInjected"}},
        {"linkFlapsInjected", {"chaos.linkFlapsInjected"}},
        {"heartbeatsSent", {"node*.kernel.health.heartbeatsSent"}},
        {"peersDeclaredDead", {"node*.kernel.health.peersDeclaredDead"}},
        {"peersRecovered", {"node*.kernel.health.peersRecovered"}},
        {"misroutes", {"mesh.router*.misroutes"}},
        {"routeAroundDrops", {"mesh.router*.routeAroundDrops"}},
        {"retransmits",
         {"node*.ni.retx.retxTimeout", "node*.ni.retx.retxNack"}},
        {"overloadBurstsInjected", {"chaos.overloadBurstsInjected"}},
        {"sendsRejected", {"node*.kernel.sendsRejected"}},
        {"ecnMarksSeen", {"node*.ni.ecnMarksSeen"}},
        {"ecnEchoesSent", {"node*.ni.ecnEchoesSent"}},
        {"pacedRetransmits", {"node*.ni.retx.retxPaced"}},
        {"watchdogStalls", {"node*.ni.watchdogStalls"}},
        {"pairsVerifiedExact", {"chaos.pairsVerifiedExact"}},
        {"dsmOpsIssued", {"chaos.dsmOpsIssued"}},
        {"dsmOpsHostdown", {"chaos.dsmOpsHostdown"}},
        {"dsmRehomes", {"node*.kernel.dsm.dsmRehomes"}},
        {"partitionsInjected", {"chaos.partitionsInjected"}},
        {"healsInjected", {"chaos.healsInjected"}},
        {"partitionsDeclared",
         {"node*.kernel.health.partitionsDeclared"}},
        {"staleEpochRejects", {"node*.kernel.health.staleEpochRejects"}},
        {"niStaleEpochDrops", {"node*.ni.staleEpochDrops"}},
        {"fencedWritebacks", {"node*.kernel.dsm.dsmFencedWritebacks"}},
        {"endTick", {"chaos.endTick"}},
};

/** One soak's fingerprint and old field values, in kRolledUpFields
 *  order, as the hand-rolled report printed them. */
struct PinnedRun
{
    std::uint64_t seed;
    unsigned partitions;
    std::uint64_t fingerprint;
    std::uint64_t values[26];
};

const PinnedRun kPinnedRuns[] = {
    {1, 0, 0x0105b8aafe9596dbULL,
     {668, 1, 3, 6288, 3, 3, 203, 0, 18, 2, 0, 12, 12, 0, 0, 4, 23, 4,
      2, 0, 0, 0, 9, 0, 0, 58000000000}},
    {2, 0, 0xa8c53119dfd6a34dULL,
     {647, 1, 3, 6294, 3, 3, 430, 0, 20, 2, 0, 11, 11, 0, 0, 4, 21, 1,
      2, 0, 0, 0, 9, 0, 0, 58000000000}},
    {3, 0, 0x05c600670ecadec0ULL,
     {653, 1, 3, 6273, 3, 3, 242, 0, 18, 2, 0, 1, 1, 0, 0, 4, 22, 1, 0,
      0, 0, 0, 9, 0, 0, 58000000000}},
    {1, 2, 0x9e478d4288d9fe94ULL,
     {668, 1, 3, 6288, 6, 6, 3778, 1002, 60, 2, 0, 25, 25, 0, 0, 0, 23,
      5, 3, 2, 2, 13, 38, 0, 0, 58000000000}},
};

void
PrintTo(const PinnedRun &run, std::ostream *os)
{
    *os << "seed" << run.seed << "_partitions" << run.partitions;
}

class ChaosPinned : public ::testing::TestWithParam<PinnedRun>
{};

//! Snapshot queries reproduce every value the hand-rolled report held.
TEST_P(ChaosPinned, QueriesReproduceRolledUpFields)
{
    const PinnedRun &pin = GetParam();
    ChaosParams p;
    p.seed = pin.seed;
    p.partitions = pin.partitions;
    ChaosReport r = runChaos(p);
    EXPECT_TRUE(r.ok()) << joinViolations(r);
    EXPECT_EQ(r.statsFingerprint, pin.fingerprint);
    // A misspelt path would silently sum to 0: every pattern must
    // match at least one counter of an all-ones copy.
    stats::Snapshot ones = r.counters;
    for (auto &[path, value] : ones.values)
        value = 1;
    ASSERT_EQ(kRolledUpFields.size(), std::size(pin.values));
    for (std::size_t i = 0; i < kRolledUpFields.size(); ++i) {
        std::uint64_t got = 0;
        for (const char *pattern : kRolledUpFields[i].second) {
            EXPECT_GT(ones.sum(pattern), 0u)
                << pattern << " matches no counter";
            got += r.counters.sum(pattern);
        }
        EXPECT_EQ(got, pin.values[i]) << kRolledUpFields[i].first;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPinned,
                         ::testing::ValuesIn(kPinnedRuns));

//! Control characters in a violation still yield parseable JSON.
TEST(ChaosSoak, JsonReportEscapesViolations)
{
    ChaosParams p;
    p.seed = 9;
    ChaosReport r;
    r.violations.push_back("line one\n\tindented \"quoted\" back\\slash");
    r.counters.values["chaos.writesIssued"] = 12;
    r.counters.values["node0.ni.pktsSent"] = 34;
    r.statsFingerprint = 0x0123456789abcdefULL;

    std::ostringstream os;
    writeChaosJson(os, p, r);
    json::Value v = json::parse(os.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("schema_version")->number, 2.0);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("stats_fingerprint")->str, "0123456789abcdef");
    const json::Value *violations = v.find("violations");
    ASSERT_TRUE(violations && violations->isArray());
    ASSERT_EQ(violations->arr.size(), 1u);
    EXPECT_EQ(violations->arr[0].str, r.violations[0]);
    const json::Value *counters = v.find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    EXPECT_DOUBLE_EQ(counters->find("chaos.writesIssued")->number, 12.0);
    EXPECT_DOUBLE_EQ(counters->find("node0.ni.pktsSent")->number, 34.0);
}

/**
 * One permanently dead link must not partition the mesh: routers
 * always detour around an advertised-dead link, so every ordered pair
 * of live nodes still delivers.
 */
TEST(ChaosSoak, DeadLinkDoesNotPartition)
{
    SystemConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 3;
    cfg.ni.reliability.enabled = true;
    ShrimpSystem sys(cfg);
    const unsigned n = sys.numNodes();

    // Kill the link between node 4 (center) and node 5, both ways.
    sys.backplane().router(4).setLinkDead(Router::EAST, true);
    sys.backplane().router(5).setLinkDead(Router::WEST, true);

    std::vector<Process *> procs(n);
    std::vector<Addr> srcBase(n), dstBase(n);
    for (NodeId id = 0; id < n; ++id) {
        procs[id] = sys.kernel(id).createProcess("pairs");
        srcBase[id] = procs[id]->allocate(n);
        dstBase[id] = procs[id]->allocate(n);
    }
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            ASSERT_EQ(sys.kernel(s).mapDirect(
                          *procs[s], srcBase[s] + d * PAGE_SIZE, 1,
                          sys.kernel(d), *procs[d],
                          dstBase[d] + s * PAGE_SIZE,
                          UpdateMode::AUTO_SINGLE),
                      err::OK);
        }
    }

    // One distinct word from every source to every destination.
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Translation t = procs[s]->space().translate(
                srcBase[s] + d * PAGE_SIZE, true);
            ASSERT_TRUE(t.ok());
            std::uint32_t value = 0xC0DE0000u + s * 16 + d;
            sys.node(s).bus.postWrite(t.paddr, &value, 4,
                                      BusMaster::CPU, sys.curTick());
        }
    }
    sys.runFor(10 * ONE_MS);

    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Translation t = procs[d]->space().translate(
                dstBase[d] + s * PAGE_SIZE, false);
            ASSERT_TRUE(t.ok());
            auto v = static_cast<std::uint32_t>(
                sys.node(d).mem.readInt(t.paddr, 4));
            EXPECT_EQ(v, 0xC0DE0000u + s * 16 + d)
                << "pair " << s << "->" << d
                << " not delivered around the dead link";
        }
    }

    // The detour really happened: no dead-link drops, some misroutes.
    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.sum("mesh.router*.routeAroundDrops"), 0u);
    EXPECT_GT(snap.sum("mesh.router*.misroutes"), 0u);
}

} // namespace
} // namespace shrimp
