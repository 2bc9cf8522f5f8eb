/**
 * @file
 * Partition tolerance: time-to-detect and time-to-heal across a sweep
 * of partition durations (the EXPERIMENTS.md P1 sweep).
 *
 * Each point isolates one node of a 2x2 mesh behind a full cut-set
 * for the configured duration while DSM traffic runs, then heals and
 * measures reintegration:
 *
 *  - time_to_detect_us: cut start until the first majority node
 *    declares the isolated node DEAD (heartbeat silence crossing the
 *    dead timeout, quorum confirmed);
 *  - time_to_heal_us: heal until every node sees every other ALIVE
 *    again (epoch bumps exchanged, stale views fenced, channels
 *    reset);
 *  - stale_epoch_rejects / ni_stale_drops / fenced_writebacks: the
 *    machine-wide fence accounting over the whole run.
 *
 * `shrimp_validate partition BENCH_partition.json` gates on detection
 * and reintegration happening at all and on the fence accounting
 * balancing.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "os/dsm.hh"
#include "os/health.hh"
#include "sim/logging.hh"

using namespace shrimp;

namespace
{

struct PartitionResult
{
    double detectUs = 0;
    double healUs = 0;
    double staleEpochRejects = 0;
    double niStaleDrops = 0;
    double fencedWritebacks = 0;
    double rehomes = 0;
    double allOk = 1;

    void fail(const char *step)
    {
        fprintf(stderr, "bench_partition: step '%s' failed\n", step);
        allOk = 0;
    }
};

/** Does every node see every other as ALIVE? */
bool
allAlive(ShrimpSystem &sys)
{
    const unsigned n = sys.numNodes();
    for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = 0; b < n; ++b) {
            if (a != b && sys.kernel(a).health()->peerState(b) !=
                              PeerHealth::ALIVE) {
                return false;
            }
        }
    }
    return true;
}

PartitionResult
runPartition(Tick partition_ticks)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    cfg.ni.reliability.enabled = true;
    cfg.router.faultTolerant = true;
    cfg.health.enabled = true;
    cfg.health.heartbeatPeriod = 100 * ONE_US;
    cfg.health.suspectTimeout = 400 * ONE_US;
    cfg.health.deadTimeout = 1500 * ONE_US;
    cfg.dsm.enabled = true;
    cfg.dsm.numPages = 4;
    ShrimpSystem sys(cfg);
    const unsigned n = cfg.numNodes();
    const NodeId iso = static_cast<NodeId>(n - 1);
    std::vector<NodeId> majority;
    for (NodeId id = 0; id < n; ++id) {
        if (id != iso)
            majority.push_back(id);
    }

    PartitionResult r;

    // The soon-to-be-isolated node takes exclusive ownership of a
    // page homed on the majority side, so the partition strands a
    // remote owner the majority must re-home.
    std::uint32_t page = 0;
    while (sys.kernel(0).dsm()->homeNode(page) == iso)
        ++page;
    bool owned = false;
    sys.kernel(iso).dsm()->acquire(
        page, true, [&owned](std::uint64_t st) {
            owned = st == err::OK;
        });
    sys.runFor(2 * ONE_MS);
    if (!owned)
        r.fail("initial-acquire");

    // ---- cut, and poll for the majority's DEAD declaration ----
    const Tick cutAt = sys.curTick();
    sys.partition({iso}, majority);
    const Tick detectCap = cutAt + 10 * ONE_MS;
    while (sys.curTick() < detectCap &&
           sys.kernel(0).health()->peerState(iso) != PeerHealth::DEAD)
        sys.runFor(50 * ONE_US);
    if (sys.kernel(0).health()->peerState(iso) == PeerHealth::DEAD) {
        r.detectUs = static_cast<double>(sys.curTick() - cutAt) /
                     ONE_US;
    } else {
        r.fail("detect");
    }

    // Split-brain safety: while the stranded owner's fate is
    // ambiguous, the home fails the page fast instead of forking a
    // second writable copy into the majority.
    bool failedFast = false;
    sys.kernel(0).dsm()->acquire(page, true,
                                 [&failedFast](std::uint64_t st) {
                                     failedFast = st == err::HOSTDOWN;
                                 });
    if (sys.curTick() < cutAt + partition_ticks)
        sys.runFor(cutAt + partition_ticks - sys.curTick());
    if (!failedFast)
        r.fail("split-brain-refusal");

    // ---- heal, and poll for full reintegration ----
    const Tick healAt = sys.curTick();
    sys.heal();
    const Tick healCap = healAt + 30 * ONE_MS;
    while (sys.curTick() < healCap && !allAlive(sys))
        sys.runFor(50 * ONE_US);
    if (allAlive(sys)) {
        r.healUs = static_cast<double>(sys.curTick() - healAt) /
                   ONE_US;
    } else {
        r.fail("reintegrate");
    }

    // Reintegration re-homed the page: the majority can finally take
    // it over, and exactly one re-home happened.
    bool reclaimed = false;
    sys.kernel(0).dsm()->acquire(page, true,
                                 [&reclaimed](std::uint64_t st) {
                                     reclaimed = st == err::OK;
                                 });
    sys.runFor(5 * ONE_MS);
    if (!reclaimed)
        r.fail("reclaim-after-heal");

    // The fenced ex-owner refaults cleanly after reintegration.
    bool refaulted = false;
    sys.kernel(iso).dsm()->acquire(page, false,
                                   [&refaulted](std::uint64_t st) {
                                       refaulted = st == err::OK;
                                   });
    sys.runFor(5 * ONE_MS);
    if (!refaulted)
        r.fail("refault");

    stats::Snapshot snap = sys.snapshot();
    auto sum = [&snap](const char *pattern) {
        return static_cast<double>(snap.sum(pattern));
    };
    r.staleEpochRejects = sum("node*.kernel.health.staleEpochRejects");
    r.niStaleDrops = sum("node*.ni.staleEpochDrops");
    r.fencedWritebacks = sum("node*.kernel.dsm.dsmFencedWritebacks");
    r.rehomes = sum("node*.kernel.dsm.dsmRehomes");
    return r;
}

void
BM_Partition(benchmark::State &state)
{
    PartitionResult r;
    auto ms = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        r = runPartition(ms * ONE_MS);
    state.counters["partition_ms"] = ms;
    state.counters["time_to_detect_us"] = r.detectUs;
    state.counters["time_to_heal_us"] = r.healUs;
    state.counters["stale_epoch_rejects"] = r.staleEpochRejects;
    state.counters["ni_stale_drops"] = r.niStaleDrops;
    state.counters["fenced_writebacks"] = r.fencedWritebacks;
    state.counters["dsm_rehomes"] = r.rehomes;
    state.counters["all_ok"] = r.allOk;
    state.SetLabel("isolate one node of a 2x2 mesh behind a full "
                   "cut-set, re-home its page, heal, reintegrate");
}
BENCHMARK(BM_Partition)
    ->Name("Partition")
    ->Arg(3)
    ->Arg(6)
    ->Arg(12)
    ->Iterations(1);

} // namespace

SHRIMP_BENCH_MAIN("partition");
