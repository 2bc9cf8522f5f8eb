#include "core/chaos.hh"

#include <cstdio>
#include <sstream>

#include "core/system.hh"
#include "os/dsm.hh"
#include "os/map_manager.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace shrimp
{

namespace
{

/** FNV-1a, the determinism probe over the final stats dump. */
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

void
fail(ChaosReport &report, std::string msg)
{
    report.violations.push_back(std::move(msg));
}

/** The harness's own counters, reported as the `chaos.*` stat group
 *  (kept out of the machine's stats dump and so its fingerprint). */
struct HarnessStats
{
    stats::Group group{"chaos"};
    stats::Counter writesIssued{group, "writesIssued", "stores issued"};
    stats::Counter crashesInjected{group, "crashesInjected", "node crashes"};
    stats::Counter linkFlapsInjected{group, "linkFlapsInjected",
                                     "link outages"};
    stats::Counter overloadBurstsInjected{group, "overloadBurstsInjected",
                                          "incast bursts"};
    stats::Counter partitionsInjected{group, "partitionsInjected",
                                      "partition cuts"};
    stats::Counter healsInjected{group, "healsInjected", "partition heals"};
    stats::Counter pairsVerifiedExact{group, "pairsVerifiedExact",
                                      "pairs checked for exact contents"};
    stats::Counter dsmOpsIssued{group, "dsmOpsIssued", "DSM acquires issued"};
    stats::Counter dsmOpsHostdown{group, "dsmOpsHostdown",
                                  "DSM acquires failed with HOSTDOWN"};
    stats::Counter endTick{group, "endTick", "tick at which the run quiesced"};
};

Router::Port
oppositeOf(Router::Port p)
{
    switch (p) {
      case Router::EAST: return Router::WEST;
      case Router::WEST: return Router::EAST;
      case Router::NORTH: return Router::SOUTH;
      case Router::SOUTH: return Router::NORTH;
      default: return Router::LOCAL;
    }
}

} // namespace

ChaosReport
runChaos(const ChaosParams &p)
{
    ChaosReport report;
    HarnessStats hs;
    const unsigned n = p.meshWidth * p.meshHeight;
    SHRIMP_ASSERT(n >= 2, "chaos soak needs at least two nodes");
    const unsigned slots = ChaosParams::slots;

    SystemConfig cfg;
    cfg.meshWidth = p.meshWidth;
    cfg.meshHeight = p.meshHeight;
    cfg.traceEnabled = !p.tracePath.empty();
    // The soak's whole point: reliable channels over a fault-tolerant
    // mesh with liveness detection wired into every kernel.
    cfg.ni.reliability.enabled = true;
    cfg.health.enabled = true;
    cfg.health.heartbeatPeriod = 100 * ONE_US;
    cfg.health.suspectTimeout = 400 * ONE_US;
    // Dead timeout above the longest link flap: a transient partition
    // must not false-kill a live peer, only a real crash dies.
    cfg.health.deadTimeout = p.maxFlapTicks + ONE_MS;
    // The overload-protection stack soaks alongside the fault stack:
    // AIMD windows fed by router ECN marks, paced + jittered
    // retransmissions, per-NI progress watchdogs, and kernel
    // admission control. The receive FIFO shrinks so an incast burst
    // actually crosses the congestion thresholds.
    cfg.ni.reliability.congestion.enabled = true;
    cfg.ni.reliability.congestion.paceBucketPackets = 8;
    cfg.ni.reliability.congestion.rtoJitterPermille = 250;
    cfg.ni.reliability.congestion.jitterSeed = p.seed ^ 0x5EEDBACCULL;
    cfg.ni.inFifo = PacketFifo::Params{8 * 1024, 6 * 1024, 3 * 1024};
    cfg.router.ecnThresholdPackets = 3;
    cfg.ni.watchdogPeriod = 2 * ONE_MS;
    cfg.admission.enabled = true;
    cfg.admission.windowFullAfter = 2 * ONE_MS;
    // The DSM directory protocol soaks on top of the same fault
    // schedule: page faults, recalls and shootdowns ride the kernel
    // RPC channel while nodes crash and links flap around them.
    if (p.dsmPages > 0) {
        cfg.dsm.enabled = true;
        cfg.dsm.numPages = p.dsmPages;
    }

    ShrimpSystem sys(cfg);
    EventQueue &eq = sys.eventQueue();
    Rng rng(p.seed);

    // ---- one process per node, one mapped page per ordered pair ----
    std::vector<Process *> procs(n);
    std::vector<Addr> srcBase(n), dstBase(n);
    for (NodeId id = 0; id < n; ++id) {
        procs[id] = sys.kernel(id).createProcess("chaos");
        srcBase[id] = procs[id]->allocate(n);
        dstBase[id] = procs[id]->allocate(n);
    }
    auto pairIdx = [n](NodeId s, NodeId d) { return s * n + d; };
    // Every third pair ships by deliberate DMA, the rest by
    // automatic update, so both datapaths soak together.
    auto deliberate = [](NodeId s, NodeId d) {
        return (s + d) % 3 == 0;
    };
    std::vector<Addr> srcPaddr(n * n, 0);
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            UpdateMode mode = deliberate(s, d)
                                  ? UpdateMode::DELIBERATE
                                  : UpdateMode::AUTO_SINGLE;
            std::uint64_t e = sys.kernel(s).mapDirect(
                *procs[s], srcBase[s] + d * PAGE_SIZE, 1,
                sys.kernel(d), *procs[d], dstBase[d] + s * PAGE_SIZE,
                mode);
            SHRIMP_ASSERT(e == err::OK, "chaos boot mapping failed: ",
                          e);
            Translation t = procs[s]->space().translate(
                srcBase[s] + d * PAGE_SIZE, true);
            SHRIMP_ASSERT(t.ok(), "chaos source page not resident");
            srcPaddr[pairIdx(s, d)] = t.paddr;
        }
    }

    // ---- pre-draw the whole schedule from one seeded stream ----

    // Traffic: writesPerPair stores per ordered pair, cycling through
    // `slots` word offsets with a per-pair increasing value.
    struct WriteEv
    {
        Tick at;
        NodeId s, d;
        std::uint32_t value;
    };
    std::vector<WriteEv> writes;
    writes.reserve(static_cast<std::size_t>(n) * n * p.writesPerPair);
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            for (unsigned k = 0; k < p.writesPerPair; ++k) {
                writes.push_back(WriteEv{rng.below(p.duration), s, d,
                                         k + 1});
            }
        }
    }

    // Crash/restart cycles. A cycle outlives the dead timeout so the
    // peers' detectors must actually fire before the node returns.
    std::vector<bool> crashedEver(n, false);
    struct CrashEv
    {
        Tick down, up;
        NodeId node;
    };
    std::vector<CrashEv> crashes;
    for (unsigned i = 0; i < p.crashes; ++i) {
        Tick len = cfg.health.deadTimeout + 3 * ONE_MS +
                   rng.below(3 * ONE_MS);
        if (len + 3 * ONE_MS >= p.duration)
            len = p.duration / 2;
        Tick at = rng.below(p.duration - len - 2 * ONE_MS);
        NodeId victim = static_cast<NodeId>(rng.below(n));
        crashes.push_back(CrashEv{at, at + len, victim});
        crashedEver[victim] = true;
    }

    // Bidirectional transient link outages.
    struct FlapEv
    {
        Tick down, up;
        NodeId a, b;
        Router::Port aPort;
    };
    std::vector<FlapEv> flaps;
    for (unsigned i = 0; i < p.linkFlaps; ++i) {
        NodeId a = static_cast<NodeId>(rng.below(n));
        unsigned x = sys.backplane().xOf(a);
        unsigned y = sys.backplane().yOf(a);
        Router::Port ports[4];
        unsigned nports = 0;
        if (x + 1 < p.meshWidth)
            ports[nports++] = Router::EAST;
        if (x > 0)
            ports[nports++] = Router::WEST;
        if (y + 1 < p.meshHeight)
            ports[nports++] = Router::SOUTH;
        if (y > 0)
            ports[nports++] = Router::NORTH;
        Router::Port port = ports[rng.below(nports)];
        NodeId b = a;
        switch (port) {
          case Router::EAST: b = a + 1; break;
          case Router::WEST: b = a - 1; break;
          case Router::SOUTH: b = a + p.meshWidth; break;
          case Router::NORTH: b = a - p.meshWidth; break;
          default: break;
        }
        Tick len = ONE_MS + rng.below(p.maxFlapTicks > ONE_MS
                                          ? p.maxFlapTicks - ONE_MS
                                          : 1);
        Tick at = rng.below(p.duration > len ? p.duration - len : 1);
        flaps.push_back(FlapEv{at, at + len, a, b, port});
    }

    // Incast overload bursts: every other node volleys stores at one
    // hot node. Burst stores reuse the pair pages with values drawn
    // from the legal range, so the safety and exactness invariants
    // keep holding; the first burst rides the first crash window so
    // retry-storm suppression runs against a dead target.
    const Tick burstSpan = 2 * ONE_MS;
    struct BurstEv
    {
        Tick at;
        NodeId hot;
    };
    std::vector<BurstEv> bursts;
    for (unsigned i = 0; i < p.overloadBursts; ++i) {
        Tick at = rng.below(
            p.duration > burstSpan ? p.duration - burstSpan : 1);
        NodeId hot = static_cast<NodeId>(rng.below(n));
        if (i == 0 && !crashes.empty()) {
            at = crashes[0].down;
            hot = crashes[0].node;
        }
        bursts.push_back(BurstEv{at, hot});
        for (NodeId s = 0; s < n; ++s) {
            if (s == hot)
                continue;
            for (unsigned k = 0; k < p.burstWritesPerSender; ++k) {
                auto v = static_cast<std::uint32_t>(
                    rng.inRange(1, p.writesPerPair));
                writes.push_back(
                    WriteEv{at + rng.below(burstSpan), s, hot, v});
            }
        }
    }

    // DSM ops: randomized read/write acquires from every node, drawn
    // last so the earlier schedules are seed-stable against the knob.
    struct DsmEv
    {
        Tick at;
        NodeId node;
        std::uint32_t page;
        bool write;
    };
    std::vector<DsmEv> dsmOps;
    if (p.dsmPages > 0) {
        for (NodeId id = 0; id < n; ++id) {
            for (unsigned k = 0; k < p.dsmOpsPerNode; ++k) {
                dsmOps.push_back(DsmEv{
                    rng.below(p.duration), id,
                    static_cast<std::uint32_t>(rng.below(p.dsmPages)),
                    rng.below(2) == 1});
            }
        }
    }

    // Partition/heal cycles, drawn after everything else so the
    // earlier schedules are seed-stable against the knob. One node is
    // isolated per cycle; each cycle lives in its own slice of the
    // run so cuts never overlap, and the outage outlives the dead
    // timeout so the majority's detectors really fire before the heal.
    struct PartEv
    {
        Tick down, up;
        NodeId isolated;
    };
    std::vector<PartEv> parts;
    if (p.partitions > 0) {
        Tick slice = p.duration / p.partitions;
        for (unsigned i = 0; i < p.partitions; ++i) {
            Tick len = cfg.health.deadTimeout + 2 * ONE_MS +
                       rng.below(ONE_MS);
            if (len + ONE_MS >= slice)
                len = slice > 2 * ONE_MS ? slice - ONE_MS : slice / 2;
            Tick slack = slice > len + ONE_MS ? slice - len - ONE_MS
                                              : 1;
            Tick at = i * slice + rng.below(slack);
            parts.push_back(
                PartEv{at, at + len,
                       static_cast<NodeId>(rng.below(n))});
        }
    }

    // ---- install the schedule on the event queue ----

    for (const WriteEv &w : writes) {
        NodeId s = w.s, d = w.d;
        Addr paddr = srcPaddr[pairIdx(s, d)] + (w.value - 1) % slots * 4;
        std::uint32_t value = w.value;
        bool dma = deliberate(s, d);
        eq.scheduleFn(
            [&sys, s, d, paddr, value, dma, &hs]() {
                if (sys.kernel(s).crashed())
                    return;     // a dead CPU stores nothing
                ++hs.writesIssued;
                if (dma) {
                    // Deliberate update: store locally, then claim the
                    // DMA engine for the whole slot region (a busy
                    // engine ignores the start, as the hardware does).
                    sys.node(s).mem.writeInt(paddr, value, 4);
                    Addr base = pageBase(pageOf(paddr));
                    std::uint32_t nwords = ChaosParams::slots;
                    sys.node(s).bus.postWrite(
                        sys.node(s).ni.cmdAddrFor(base), &nwords, 4,
                        BusMaster::CPU, sys.curTick());
                } else {
                    sys.node(s).bus.postWrite(paddr, &value, 4,
                                              BusMaster::CPU,
                                              sys.curTick());
                }
            },
            w.at, EventPriority::DEFAULT, "chaos write");
    }
    for (const CrashEv &c : crashes) {
        NodeId victim = c.node;
        eq.scheduleFn([&sys, victim, &hs]() {
            if (!sys.nodeCrashed(victim))
                ++hs.crashesInjected;
            sys.crashNode(victim);
        }, c.down, EventPriority::DEFAULT, "chaos crash");
        eq.scheduleFn([&sys, victim]() { sys.restartNode(victim); },
                      c.up, EventPriority::DEFAULT, "chaos restart");
    }
    for (const BurstEv &b : bursts) {
        eq.scheduleFn([&hs]() { ++hs.overloadBurstsInjected; },
                      b.at, EventPriority::DEFAULT, "chaos burst");
    }
    for (const DsmEv &o : dsmOps) {
        NodeId node = o.node;
        std::uint32_t page = o.page;
        bool write = o.write;
        eq.scheduleFn(
            [&sys, node, page, write, &hs]() {
                if (sys.kernel(node).crashed())
                    return;     // a dead CPU faults on nothing
                ++hs.dsmOpsIssued;
                sys.kernel(node).dsm()->acquire(
                    page, write, [&hs](std::uint64_t st) {
                        if (st == err::HOSTDOWN)
                            ++hs.dsmOpsHostdown;
                    });
            },
            o.at, EventPriority::DEFAULT, "chaos dsm op");
    }
    for (const FlapEv &f : flaps) {
        NodeId a = f.a, b = f.b;
        Router::Port ap = f.aPort, bp = oppositeOf(f.aPort);
        eq.scheduleFn([&sys, a, b, ap, bp, &hs]() {
            ++hs.linkFlapsInjected;
            sys.backplane().router(a).setLinkDead(ap, true);
            sys.backplane().router(b).setLinkDead(bp, true);
        }, f.down, EventPriority::DEFAULT, "chaos link down");
        eq.scheduleFn([&sys, a, b, ap, bp]() {
            sys.backplane().router(a).setLinkDead(ap, false);
            sys.backplane().router(b).setLinkDead(bp, false);
        }, f.up, EventPriority::DEFAULT, "chaos link up");
    }
    for (const PartEv &pe : parts) {
        NodeId iso = pe.isolated;
        eq.scheduleFn(
            [&sys, iso, n, &hs]() {
                std::vector<NodeId> minority{iso};
                std::vector<NodeId> majority;
                for (NodeId id = 0; id < n; ++id) {
                    if (id != iso)
                        majority.push_back(id);
                }
                ++hs.partitionsInjected;
                sys.partition(minority, majority);
            },
            pe.down, EventPriority::DEFAULT, "chaos partition");
        eq.scheduleFn(
            [&sys, &hs]() {
                ++hs.healsInjected;
                sys.heal();
            },
            pe.up, EventPriority::DEFAULT, "chaos heal");
    }

    // ---- run: fault phase, forced healing, settle, quiesce ----

    sys.runFor(p.duration);

    sys.heal();     // a partition cycle may still be in force
    for (NodeId id = 0; id < n; ++id) {
        for (Router::Port port : {Router::EAST, Router::WEST, Router::NORTH,
                          Router::SOUTH}) {
            sys.backplane().router(id).setLinkDead(port, false);
        }
        sys.restartNode(id);
    }
    sys.runFor(p.settle);

    // Stop the heartbeat clocks so "quiescent" is checkable: after a
    // short drain nothing may remain in flight anywhere.
    for (NodeId id = 0; id < n; ++id)
        sys.kernel(id).health()->pause();
    sys.runFor(3 * ONE_MS);
    hs.endTick += sys.curTick();

    for (NodeId id = 0; id < n; ++id) {
        Router &router = sys.backplane().router(id);
        if (router.queuedPackets() != 0) {
            fail(report, "router " + std::to_string(id) + " wedged: " +
                             std::to_string(router.queuedPackets()) +
                             " packets queued after settle");
        }
        ShrimpNi &ni = sys.node(id).ni;
        if (!ni.outgoingFifo().empty() || !ni.incomingFifo().empty()) {
            fail(report, "node " + std::to_string(id) +
                             " NI FIFOs not drained after settle");
        }
        if (ni.progressStalled()) {
            fail(report, "node " + std::to_string(id) +
                             " watchdog stall survived the settle "
                             "phase");
        }
        for (NodeId peer = 0; peer < n; ++peer) {
            if (peer == id)
                continue;
            std::size_t fill =
                ni.retransmitBuffer().windowFill(peer);
            if (fill != 0) {
                RetransmitBuffer &rb = ni.retransmitBuffer();
                fail(report,
                     "node " + std::to_string(id) + " still holds " +
                         std::to_string(fill) +
                         " unacked packets toward " +
                         std::to_string(peer) + " (failed " +
                         std::to_string(rb.isFailed(peer)) +
                         ", deadline " +
                         std::to_string(rb.armedDeadline(peer)) +
                         ", retries " +
                         std::to_string(rb.headRetries(peer)) +
                         ", cwnd " +
                         std::to_string(rb.congestionWindow(peer)) +
                         ", out " +
                         std::to_string(ni.outgoingFifo().packets()) +
                         ", in " +
                         std::to_string(ni.incomingFifo().packets()) +
                         ", injectReady " +
                         std::to_string(sys.backplane()
                                            .router(id)
                                            .injectReady()) +
                         ", ctrl " +
                         std::to_string(ni.controlQueueDepth()) +
                         ", headSeq " +
                         std::to_string(rb.headSeq(peer)) +
                         ", peerExpects " +
                         std::to_string(sys.node(peer)
                                            .ni.rxExpectedFrom(id)) +
                         ")");
            }
        }
    }

    // ---- data invariants, read off the report's one snapshot ----
    report.counters = sys.snapshot();
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            // A pair is checkable end-to-end only if no fault touched
            // it: neither endpoint crashed, the channel never failed,
            // and recovery never purged its mapping record.
            bool mappingAlive = false;
            for (const auto &rec :
                 sys.kernel(s).mapManager().outRecords()) {
                if (rec.pid == procs[s]->pid() &&
                    rec.vpage == pageOf(srcBase[s] + d * PAGE_SIZE) &&
                    rec.dstNode == d) {
                    mappingAlive = true;
                }
            }
            // An overload burst may legitimately shed load at the
            // sender (outgoing FIFO overflow drop), so a source that
            // ever dropped cannot promise convergence -- only safety.
            // A partition cycle degrades every pair, not just the
            // isolated node's: each recovery bumps incarnations
            // machine-wide, and every bump resets channels at every
            // peer, legitimately fencing writes queued across it.
            bool exact = p.partitions == 0 &&
                         !crashedEver[s] && !crashedEver[d] &&
                         !sys.kernel(s).peerFailed(d) && mappingAlive &&
                         !deliberate(s, d) &&
                         report.counters.at("node" + std::to_string(s) +
                                            ".ni.sendOverflowDrops") == 0;

            Translation dt = procs[d]->space().translate(
                dstBase[d] + s * PAGE_SIZE, false);
            if (!dt.ok()) {
                fail(report, "destination page of pair " +
                                 std::to_string(s) + "->" +
                                 std::to_string(d) + " not resident");
                continue;
            }
            for (unsigned j = 0; j < slots; ++j) {
                auto v = static_cast<std::uint32_t>(
                    sys.node(d).mem.readInt(dt.paddr + 4 * j, 4));
                // Safety: a destination word is either untouched or a
                // value the source really stored at this offset.
                if (v != 0 && (v > p.writesPerPair ||
                               (v - 1) % slots != j)) {
                    fail(report,
                         "pair " + std::to_string(s) + "->" +
                             std::to_string(d) + " slot " +
                             std::to_string(j) +
                             " holds foreign value " +
                             std::to_string(v));
                }
                if (!exact)
                    continue;
                // Liveness: an untouched pair's page converged to the
                // source's final contents, exactly once and in order.
                auto want = static_cast<std::uint32_t>(
                    sys.node(s).mem.readInt(
                        srcPaddr[pairIdx(s, d)] + 4 * j, 4));
                if (v != want) {
                    fail(report,
                         "pair " + std::to_string(s) + "->" +
                             std::to_string(d) + " slot " +
                             std::to_string(j) + " ended at " +
                             std::to_string(v) + ", source wrote " +
                             std::to_string(want));
                }
            }
            if (exact)
                ++hs.pairsVerifiedExact;
        }
    }

    // ---- DSM directory invariants ----
    for (std::uint32_t pg = 0; p.dsmPages > 0 && pg < p.dsmPages;
         ++pg) {
        Dsm &home = *sys.kernel(sys.kernel(0).dsm()->homeNode(pg))
                         .dsm();
        const NodeId homeId = home.homeNode(pg);

        // At most one node machine-wide holds the page exclusively,
        // and any holder is exactly the directory's recorded owner.
        unsigned exclusive = 0;
        for (NodeId id = 0; id < n; ++id) {
            if (sys.kernel(id).dsm()->localState(pg) !=
                DsmPageState::WRITE_EXCLUSIVE) {
                continue;
            }
            ++exclusive;
            if (!home.errored(pg) && home.ownerOf(pg) != id) {
                fail(report,
                     "dsm page " + std::to_string(pg) + ": node " +
                         std::to_string(id) +
                         " is WRITE_EXCLUSIVE but the directory "
                         "records owner " +
                         std::to_string(home.ownerOf(pg)));
            }
        }
        if (exclusive > 1) {
            fail(report, "dsm page " + std::to_string(pg) + " has " +
                             std::to_string(exclusive) +
                             " exclusive owners");
        }

        // A recorded owner is a live peer (or the page is errored,
        // awaiting the lost owner's recovery).
        NodeId owner = home.ownerOf(pg);
        if (owner != INVALID_NODE && !home.errored(pg) &&
            owner != homeId && sys.kernel(homeId).peerFailed(owner)) {
            fail(report, "dsm page " + std::to_string(pg) +
                             " owned by dead node " +
                             std::to_string(owner) +
                             " without being errored");
        }
    }

    // ---- the harness's counters and the determinism fingerprint ----
    hs.group.snapshotInto(report.counters);

    std::ostringstream stats;
    sys.dumpStatsJson(stats);
    report.statsFingerprint = fnv1a(stats.str());

    if (!p.tracePath.empty() && sys.tracer())
        sys.tracer()->writeFile(p.tracePath);

    return report;
}

void
writeChaosJson(std::ostream &os, const ChaosParams &params,
               const ChaosReport &r)
{
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r.statsFingerprint));
    os << "{\n  \"schema_version\": 2,\n  \"kind\": \"chaos\",\n"
       << "  \"seed\": " << params.seed << ",\n"
       << "  \"ok\": " << (r.ok() ? "true" : "false") << ",\n"
       << "  \"stats_fingerprint\": \"" << fp << "\",\n"
       << "  \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i)
        os << (i ? ", " : "") << '"' << json::escape(r.violations[i])
           << '"';
    os << "],\n  \"counters\": {";
    const char *sep = "\n";
    for (const auto &[path, value] : r.counters.values) {
        os << sep << "    \"" << json::escape(path) << "\": " << value;
        sep = ",\n";
    }
    os << "\n  }\n}\n";
}

} // namespace shrimp
