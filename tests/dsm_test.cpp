/**
 * @file
 * Distributed shared memory over VMMC: directory coherence
 * (read-share then write-invalidate), home-side serialization of
 * concurrent faults, data migration through the home relay, and the
 * failure story (owner crash -> HOSTDOWN, restart -> re-home and
 * clean re-fault).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "os/dsm.hh"
#include "sim/json.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

SystemConfig
dsmConfig(unsigned nodes = 3, bool with_health = false)
{
    SystemConfig cfg;
    cfg.meshWidth = nodes;
    cfg.meshHeight = 1;
    cfg.dsm.enabled = true;
    cfg.dsm.numPages = 8;
    if (with_health) {
        cfg.ni.reliability.enabled = true;
        cfg.health.enabled = true;
        cfg.health.heartbeatPeriod = 50 * ONE_US;
        cfg.health.suspectTimeout = 200 * ONE_US;
        cfg.health.deadTimeout = 600 * ONE_US;
    }
    return cfg;
}

/** Issue an acquire and record its completion status. */
void
acquire(ShrimpSystem &sys, NodeId node, std::uint32_t page, bool write,
        std::uint64_t &status_out)
{
    status_out = ~std::uint64_t{0};
    sys.kernel(node).dsm()->acquire(
        page, write,
        [&status_out](std::uint64_t st) { status_out = st; });
}

TEST(Dsm, ReadShareThenWriteInvalidates)
{
    ShrimpSystem sys(dsmConfig());
    const std::uint32_t page = 0;       // homed at node 0
    Dsm &home = *sys.kernel(0).dsm();
    ASSERT_TRUE(home.isHome(page));

    // All three nodes take read copies.
    std::uint64_t st0, st1, st2;
    acquire(sys, 0, page, false, st0);
    acquire(sys, 1, page, false, st1);
    acquire(sys, 2, page, false, st2);
    sys.runFor(5 * ONE_MS);
    EXPECT_EQ(st0, err::OK);
    EXPECT_EQ(st1, err::OK);
    EXPECT_EQ(st2, err::OK);
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(sys.kernel(n).dsm()->localState(page),
                  DsmPageState::READ_SHARED)
            << "node " << n;
    }
    EXPECT_EQ(home.sharersOf(page).size(), 3u);
    EXPECT_EQ(home.ownerOf(page), INVALID_NODE);

    // Node 1 writes: every other sharer must be shot down.
    acquire(sys, 1, page, true, st1);
    sys.runFor(5 * ONE_MS);
    EXPECT_EQ(st1, err::OK);
    EXPECT_EQ(sys.kernel(1).dsm()->localState(page),
              DsmPageState::WRITE_EXCLUSIVE);
    EXPECT_EQ(sys.kernel(0).dsm()->localState(page),
              DsmPageState::INVALID);
    EXPECT_EQ(sys.kernel(2).dsm()->localState(page),
              DsmPageState::INVALID);
    EXPECT_EQ(home.ownerOf(page), 1u);
    EXPECT_TRUE(home.sharersOf(page).empty());
    stats::Snapshot snap = sys.snapshot();
    EXPECT_GE(snap.at("node0.kernel.dsm.dsmInvalidations") +
                  snap.at("node2.kernel.dsm.dsmInvalidations"),
              2u);
}

TEST(Dsm, DataMigratesThroughHomeRelay)
{
    ShrimpSystem sys(dsmConfig());
    const std::uint32_t page = 1;       // homed at node 1
    std::uint64_t st;

    // Node 2 writes a recognizable pattern into its exclusive copy.
    acquire(sys, 2, page, true, st);
    sys.runFor(5 * ONE_MS);
    ASSERT_EQ(st, err::OK);
    PageNum f2 = sys.kernel(2).dsm()->localFrame(page);
    ASSERT_NE(f2, INVALID_PAGE);
    for (unsigned i = 0; i < 16; ++i)
        sys.node(2).mem.writeInt(pageBase(f2) + 4 * i, 0xD50'0000 + i,
                                 4);

    // Node 0 reads: recall from node 2 (write back through the home),
    // then a fresh grant carrying the written data.
    acquire(sys, 0, page, false, st);
    sys.runFor(5 * ONE_MS);
    ASSERT_EQ(st, err::OK);
    EXPECT_EQ(sys.kernel(2).dsm()->localState(page),
              DsmPageState::READ_SHARED);
    EXPECT_GE(sys.snapshot().at("node1.kernel.dsm.dsmFetches"), 1u);
    PageNum f0 = sys.kernel(0).dsm()->localFrame(page);
    ASSERT_NE(f0, INVALID_PAGE);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(sys.node(0).mem.readInt(pageBase(f0) + 4 * i, 4),
                  0xD50'0000 + i)
            << "word " << i;
    }
}

TEST(Dsm, ConcurrentWriteFaultsSerialize)
{
    ShrimpSystem sys(dsmConfig());
    const std::uint32_t page = 2;       // homed at node 2
    std::uint64_t st0, st1, st2;

    // Three write faults land at the home in the same tick window; the
    // directory must serve them one at a time.
    acquire(sys, 0, page, true, st0);
    acquire(sys, 1, page, true, st1);
    acquire(sys, 2, page, true, st2);
    sys.runFor(10 * ONE_MS);
    EXPECT_EQ(st0, err::OK);
    EXPECT_EQ(st1, err::OK);
    EXPECT_EQ(st2, err::OK);

    // Exactly one node ends exclusive, and the directory agrees.
    NodeId owner = sys.kernel(2).dsm()->ownerOf(page);
    ASSERT_NE(owner, INVALID_NODE);
    unsigned exclusive = 0;
    for (NodeId n = 0; n < 3; ++n) {
        DsmPageState s = sys.kernel(n).dsm()->localState(page);
        if (s == DsmPageState::WRITE_EXCLUSIVE) {
            ++exclusive;
            EXPECT_EQ(n, owner);
        } else {
            EXPECT_EQ(s, DsmPageState::INVALID) << "node " << n;
        }
    }
    EXPECT_EQ(exclusive, 1u);
}

TEST(Dsm, OwnerCrashFailsFaultsWithHostdown)
{
    SystemConfig cfg = dsmConfig(3, true);
    ShrimpSystem sys(cfg);
    const std::uint32_t page = 1;       // homed at node 1
    std::uint64_t st;

    acquire(sys, 2, page, true, st);
    sys.runFor(2 * ONE_MS);
    ASSERT_EQ(st, err::OK);
    ASSERT_EQ(sys.kernel(1).dsm()->ownerOf(page), 2u);

    // Kill the exclusive owner, then fault from node 0 while the
    // failure is still undetected: the home's recall can never be
    // answered, so the fault must fail with HOSTDOWN -- not hang.
    sys.crashNode(2);
    std::uint64_t st0;
    acquire(sys, 0, page, false, st0);
    sys.runFor(cfg.health.deadTimeout + 10 * cfg.health.heartbeatPeriod);

    EXPECT_EQ(st0, err::HOSTDOWN);
    EXPECT_TRUE(sys.kernel(1).dsm()->errored(page));
    EXPECT_GE(sys.snapshot().at("node0.kernel.dsm.dsmHostdownFaults"), 1u);

    // The page stays errored for later faults too.
    acquire(sys, 0, page, true, st0);
    sys.runFor(2 * ONE_MS);
    EXPECT_EQ(st0, err::HOSTDOWN);

    // Other pages are untouched by the crash.
    acquire(sys, 0, 0, true, st0);
    sys.runFor(2 * ONE_MS);
    EXPECT_EQ(st0, err::OK);
}

TEST(Dsm, RestartRehomesAndRefaultsCleanly)
{
    SystemConfig cfg = dsmConfig(3, true);
    ShrimpSystem sys(cfg);
    const std::uint32_t page = 1;       // homed at node 1
    std::uint64_t st;

    acquire(sys, 2, page, true, st);
    sys.runFor(2 * ONE_MS);
    ASSERT_EQ(st, err::OK);

    sys.crashNode(2);
    sys.runFor(cfg.health.deadTimeout + 10 * cfg.health.heartbeatPeriod);
    ASSERT_TRUE(sys.kernel(1).dsm()->errored(page));

    // Recovery: the home re-homes the page off the lost owner...
    sys.restartNode(2);
    sys.runFor(2 * ONE_MS);
    ASSERT_FALSE(sys.kernel(1).peerFailed(2));
    EXPECT_FALSE(sys.kernel(1).dsm()->errored(page));
    EXPECT_GE(sys.snapshot().at("node1.kernel.dsm.dsmRehomes"), 1u);

    // ...new faults succeed again, including from the restarted node
    // (whose local DSM state was wiped by the reset).
    acquire(sys, 0, page, false, st);
    sys.runFor(5 * ONE_MS);
    EXPECT_EQ(st, err::OK);
    EXPECT_EQ(sys.kernel(2).dsm()->localState(page),
              DsmPageState::INVALID);
    acquire(sys, 2, page, true, st);
    sys.runFor(5 * ONE_MS);
    EXPECT_EQ(st, err::OK);
    EXPECT_EQ(sys.kernel(1).dsm()->ownerOf(page), 2u);
}

TEST(Dsm, CrashedHomeFailsFastAndRecovers)
{
    SystemConfig cfg = dsmConfig(3, true);
    ShrimpSystem sys(cfg);
    const std::uint32_t page = 1;       // homed at node 1
    std::uint64_t st;

    acquire(sys, 0, page, false, st);
    sys.runFor(2 * ONE_MS);
    ASSERT_EQ(st, err::OK);

    // The home dies: cached copies are dropped once the death is
    // detected, and new faults toward it fail fast with HOSTDOWN.
    sys.crashNode(1);
    sys.runFor(cfg.health.deadTimeout + 10 * cfg.health.heartbeatPeriod);
    ASSERT_TRUE(sys.kernel(0).peerFailed(1));
    EXPECT_EQ(sys.kernel(0).dsm()->localState(page),
              DsmPageState::INVALID);
    acquire(sys, 0, page, true, st);
    sys.runFor(2 * ONE_MS);
    EXPECT_EQ(st, err::HOSTDOWN);

    // After restart the home's directory is empty and serves again.
    sys.restartNode(1);
    sys.runFor(2 * ONE_MS);
    acquire(sys, 0, page, true, st);
    sys.runFor(5 * ONE_MS);
    EXPECT_EQ(st, err::OK);
    EXPECT_EQ(sys.kernel(1).dsm()->ownerOf(page), 0u);
}

TEST(Dsm, FailedFaultKillsOnlyTheFaultingProcess)
{
    // A program's store into a page whose home is dead fails the DSM
    // fault with HOSTDOWN; the kernel kills that process, and every
    // other process on the node runs on.
    SystemConfig cfg = dsmConfig(3, true);
    ShrimpSystem sys(cfg);
    sys.crashNode(1);
    sys.runFor(cfg.health.deadTimeout + 10 * cfg.health.heartbeatPeriod);
    ASSERT_TRUE(sys.kernel(0).peerFailed(1));

    Process *faulter = sys.kernel(0).createProcess("dsm-faulter");
    sys.kernel(0).dsm()->attach(*faulter);
    Addr faulter_marker = faulter->allocate(1);
    Program pf("dsm-faulter");
    pf.movi(R1, Dsm::baseVaddr);
    pf.sti(R1, PAGE_SIZE, 0xBAD);       // page 1, homed at dead node 1
    pf.movi(R2, faulter_marker);
    pf.sti(R2, 0, 0xF1);                // never reached
    pf.halt();
    test::loadProgram(sys.kernel(0), *faulter, std::move(pf));

    Process *bystander = sys.kernel(0).createProcess("bystander");
    Addr bystander_marker = bystander->allocate(1);
    Program pb("bystander");
    pb.movi(R1, bystander_marker);
    pb.sti(R1, 0, 0xB2);
    pb.halt();
    test::loadProgram(sys.kernel(0), *bystander, std::move(pb));

    sys.kernel(0).start();
    ASSERT_TRUE(sys.runUntilAllExited(200 * ONE_MS));
    EXPECT_EQ(faulter->state, ProcState::EXITED);
    EXPECT_EQ(test::peek32(sys, 0, *faulter, faulter_marker), 0u);
    EXPECT_EQ(test::peek32(sys, 0, *bystander, bystander_marker), 0xB2u);
    EXPECT_EQ(sys.snapshot().at("node0.kernel.dsm.dsmHostdownFaults"), 1u);
}

TEST(Dsm, WritebackFenceRejectsNonOwnerAndSupersededLife)
{
    // Dsm::handleWb's split-brain fence, driven directly: a DSM_WB
    // from a node the directory does not record as owner, or from a
    // life of the owner other than the one granted, is refused with
    // err::STALE_EPOCH and never copies its bounce frame into the
    // home frame.
    ShrimpSystem sys(dsmConfig(3, true));
    const std::uint32_t page = 0;       // homed at node 0
    Dsm &home = *sys.kernel(0).dsm();
    sys.runFor(ONE_MS);

    // Node 2's first life ends; its second life takes the grant.
    sys.kernel(2).health()->bumpIncarnation("test");
    sys.runFor(ONE_MS);
    ASSERT_EQ(sys.kernel(0).peerIncarnation(2), 2u);
    std::uint64_t st;
    acquire(sys, 2, page, true, st);
    sys.runFor(5 * ONE_MS);
    ASSERT_EQ(st, err::OK);
    ASSERT_EQ(home.ownerOf(page), 2u);

    PageNum home_frame = home.homeFrameOf(page);
    auto home_copy = [&] {
        std::vector<std::uint8_t> buf(PAGE_SIZE);
        sys.node(0).mem.read(pageBase(home_frame), buf.data(), PAGE_SIZE);
        return buf;
    };
    const std::vector<std::uint8_t> before = home_copy();
    const std::vector<std::uint8_t> junk(PAGE_SIZE, 0xA5);
    for (NodeId peer : {NodeId{1}, NodeId{2}}) {
        sys.node(0).mem.write(pageBase(home.bounceInFrame(peer)),
                              junk.data(), PAGE_SIZE);
    }
    auto writeback = [&](NodeId from, std::uint32_t inc) {
        std::uint32_t wb[channel::payloadWords] = {};
        std::uint32_t resp[channel::payloadWords] = {};
        wb[0] = page;
        wb[4] = inc;
        return home.handleRpc(from, channel::DSM_WB, wb, resp);
    };
    const auto stale = static_cast<std::uint32_t>(err::STALE_EPOCH);
    auto rejects = [&sys] {
        return sys.snapshot().sum("node0.kernel.health.staleEpochRejects");
    };
    const std::uint64_t rejects_before = rejects();

    EXPECT_EQ(writeback(1, sys.kernel(1).selfIncarnation()), stale);
    EXPECT_EQ(writeback(2, 1), stale);
    EXPECT_EQ(home_copy(), before);
    EXPECT_EQ(home.ownerOf(page), 2u);
    // The fence counts on its own stat path only: health's counter is
    // for the messages health itself fences.
    EXPECT_EQ(sys.snapshot().sum("node0.kernel.dsm.dsmFencedWritebacks"),
              2u);
    EXPECT_EQ(rejects(), rejects_before);

    // The granted life's writeback lands.
    EXPECT_EQ(writeback(2, sys.kernel(2).selfIncarnation()),
              static_cast<std::uint32_t>(err::OK));
    EXPECT_EQ(home_copy(), junk);
    EXPECT_EQ(home.ownerOf(page), INVALID_NODE);
}

TEST(Dsm, EpochChannelResetAndFencedWritebackAreTraced)
{
    // The tracer records both facts: the TX channel resets a health
    // epoch change causes, and a writeback the DSM fence refuses.
    SystemConfig cfg = dsmConfig(3, true);
    cfg.traceEnabled = true;
    ShrimpSystem sys(cfg);
    const std::uint32_t page = 0;       // homed at node 0
    sys.runFor(ONE_MS);

    const Tick bumped = sys.curTick();
    sys.kernel(2).health()->bumpIncarnation("test");
    sys.runFor(ONE_MS);
    std::uint64_t st;
    acquire(sys, 2, page, true, st);
    sys.runFor(5 * ONE_MS);
    ASSERT_EQ(st, err::OK);
    // A writeback from node 2's first life, which the grant outlived.
    std::uint32_t wb[channel::payloadWords] = {page, 0, 0, 0, 1, 0};
    std::uint32_t resp[channel::payloadWords] = {};
    ASSERT_EQ(sys.kernel(0).dsm()->handleRpc(2, channel::DSM_WB, wb, resp),
              static_cast<std::uint32_t>(err::STALE_EPOCH));

    std::ostringstream os;
    sys.tracer()->exportJson(os);
    const json::Value root = json::parse(os.str());
    const json::Value *events = root.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    std::map<double, std::string> track;    // tid -> component
    for (const json::Value &ev : events->arr) {
        if (ev.find("ph")->str == "M" &&
            ev.find("name")->str == "thread_name") {
            track[ev.find("tid")->number] =
                ev.find("args")->find("name")->str;
        }
    }
    std::set<double> reset_dsts;            // node 2's, after the bump
    unsigned fenced = 0;
    for (const json::Value &ev : events->arr) {
        if (ev.find("ph")->str != "i")
            continue;
        const std::string &who = track[ev.find("tid")->number];
        const std::string &what = ev.find("name")->str;
        const json::Value *args = ev.find("args");
        if (what == "channelReset" && who == "node2.ni.retx" &&
            ev.find("ts")->number >=
                static_cast<double>(bumped) / ONE_US) {
            reset_dsts.insert(args->find("dst")->number);
        }
        if (what == "fencedWriteback" && who == "node0.kernel") {
            ++fenced;
            EXPECT_EQ(args->find("page")->number, page);
            EXPECT_EQ(args->find("src")->number, 2.0);
            EXPECT_EQ(args->find("inc")->number, 1.0);
            EXPECT_EQ(args->find("owner")->number, 2.0);
        }
    }
    EXPECT_EQ(reset_dsts, (std::set<double>{0.0, 1.0}));
    EXPECT_EQ(fenced, 1u);
}

TEST(Dsm, FaultDrivenProgramTouchesWindow)
{
    // End to end through the CPU fault path: a program strides over
    // two DSM pages it never mapped, writing then reading back.
    SystemConfig cfg = dsmConfig(2);
    ShrimpSystem sys(cfg);

    Process *p = sys.kernel(0).createProcess("dsm-walker");
    sys.kernel(0).dsm()->attach(*p);
    const Addr base = Dsm::baseVaddr;

    Program prog("dsm-walker");
    prog.movi(R1, base);
    prog.sti(R1, 0, 0xABC);             // page 0 (write fault)
    prog.sti(R1, PAGE_SIZE, 0xDEF);     // page 1 (write fault)
    prog.ld(R2, R1, 0);                 // hits, already mapped
    prog.st(R1, 8, R2);
    prog.halt();
    test::loadProgram(sys.kernel(0), *p, std::move(prog));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited(200 * ONE_MS));
    EXPECT_EQ(p->state, ProcState::EXITED);

    Dsm &d = *sys.kernel(0).dsm();
    EXPECT_GE(sys.snapshot().at("node0.kernel.dsm.dsmFaults"), 2u);
    EXPECT_EQ(d.localState(0), DsmPageState::WRITE_EXCLUSIVE);
    EXPECT_EQ(d.localState(1), DsmPageState::WRITE_EXCLUSIVE);
    EXPECT_EQ(test::peek32(sys, 0, *p, base), 0xABCu);
    EXPECT_EQ(test::peek32(sys, 0, *p, base + 8), 0xABCu);
    EXPECT_EQ(test::peek32(sys, 0, *p, base + PAGE_SIZE), 0xDEFu);
    EXPECT_GT(d.faultLatency().count(), 0u);
}

} // namespace
} // namespace shrimp
