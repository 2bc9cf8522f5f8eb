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
 *  - stale_epoch_rejects: heartbeats and kernel RPC records the
 *    health monitors fenced for a stale incarnation, machine-wide
 *    over the whole run;
 *  - ni_stale_drops / fenced_writebacks: what the NI channel-epoch
 *    gate and the DSM writeback fence dropped, machine-wide. Reported
 *    only: here the stale writeback dies with the owner's channel
 *    reset before it reaches either fence (DESIGN.md section 14);
 *  - dsm_rehomes: re-homes of the stranded page, machine-wide;
 *  - all_ok: every step of the scenario below succeeded.
 *
 * Claims P1 (bench/shrimp_claims.cc) gate detection and
 * reintegration happening at all, the heal's incarnation bumps
 * fencing stale messages (stale_epoch_rejects > 0), exactly one
 * re-home and all_ok.
 */

#include <cstdio>

#include "bench_util.hh"
#include "experiments.hh"
#include "os/dsm.hh"
#include "os/health.hh"
#include "sim/logging.hh"

namespace shrimp
{
namespace
{

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

void
runPartition(claims::Metrics &m, unsigned partition_ms)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    cfg.ni.reliability.enabled = true;
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

    m["partition_ms"] = partition_ms;
    m["all_ok"] = 1;
    auto fail = [&m](const char *step) {
        std::fprintf(stderr, "partition: step '%s' failed\n", step);
        m["all_ok"] = 0;
    };

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
        fail("initial-acquire");

    // ---- cut, and poll for the majority's DEAD declaration ----
    const Tick cutAt = sys.curTick();
    sys.partition({iso}, majority);
    const Tick detectCap = cutAt + 10 * ONE_MS;
    while (sys.curTick() < detectCap &&
           sys.kernel(0).health()->peerState(iso) != PeerHealth::DEAD)
        sys.runFor(50 * ONE_US);
    if (sys.kernel(0).health()->peerState(iso) == PeerHealth::DEAD) {
        m["time_to_detect_us"] =
            static_cast<double>(sys.curTick() - cutAt) / ONE_US;
    } else {
        fail("detect");
    }

    // Split-brain safety: while the stranded owner's fate is
    // ambiguous, the home fails the page fast instead of forking a
    // second writable copy into the majority.
    bool failedFast = false;
    sys.kernel(0).dsm()->acquire(page, true,
                                 [&failedFast](std::uint64_t st) {
                                     failedFast = st == err::HOSTDOWN;
                                 });
    const Tick healDue = cutAt + partition_ms * ONE_MS;
    if (sys.curTick() < healDue)
        sys.runFor(healDue - sys.curTick());
    if (!failedFast)
        fail("split-brain-refusal");

    // ---- heal, and poll for full reintegration ----
    const Tick healAt = sys.curTick();
    sys.heal();
    const Tick healCap = healAt + 30 * ONE_MS;
    while (sys.curTick() < healCap && !allAlive(sys))
        sys.runFor(50 * ONE_US);
    if (allAlive(sys)) {
        m["time_to_heal_us"] =
            static_cast<double>(sys.curTick() - healAt) / ONE_US;
    } else {
        fail("reintegrate");
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
        fail("reclaim-after-heal");

    // The fenced ex-owner refaults cleanly after reintegration.
    bool refaulted = false;
    sys.kernel(iso).dsm()->acquire(page, false,
                                   [&refaulted](std::uint64_t st) {
                                       refaulted = st == err::OK;
                                   });
    sys.runFor(5 * ONE_MS);
    if (!refaulted)
        fail("refault");

    stats::Snapshot snap = sys.snapshot();
    auto sum = [&snap](const char *pattern) {
        return static_cast<double>(snap.sum(pattern));
    };
    m["stale_epoch_rejects"] = sum("node*.kernel.health.staleEpochRejects");
    m["ni_stale_drops"] = sum("node*.ni.staleEpochDrops");
    m["fenced_writebacks"] = sum("node*.kernel.dsm.dsmFencedWritebacks");
    m["dsm_rehomes"] = sum("node*.kernel.dsm.dsmRehomes");
}

} // namespace

void
experiments::partition(claims::Rows &rows)
{
    // Isolate one node of a 2x2 mesh behind a full cut-set, re-home
    // its page, heal, reintegrate.
    for (unsigned ms : {3u, 6u, 12u})
        runPartition(claims::newRow(rows, "Partition/" + std::to_string(ms)),
                     ms);
}

} // namespace shrimp
