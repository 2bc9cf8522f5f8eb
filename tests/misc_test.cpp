/**
 * @file
 * Smaller-surface tests: name functions, logging/trace flags, stats
 * dumping at the system level, kernel accounting helpers, and
 * write-buffer drain semantics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "mem/cache.hh"
#include "nic/nipt.hh"
#include "os/process.hh"
#include "sim/logging.hh"

namespace shrimp
{
namespace
{

TEST(Names, AllOpcodesHaveMnemonics)
{
    for (int op = 0; op <= static_cast<int>(Opcode::MARK); ++op) {
        const char *name = opcodeName(static_cast<Opcode>(op));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "???") << "opcode " << op;
    }
}

TEST(Names, PolicyAndStateNames)
{
    EXPECT_STREQ(cachePolicyName(CachePolicy::WRITE_BACK),
                 "write-back");
    EXPECT_STREQ(cachePolicyName(CachePolicy::WRITE_THROUGH),
                 "write-through");
    EXPECT_STREQ(cachePolicyName(CachePolicy::UNCACHEABLE),
                 "uncacheable");

    EXPECT_STREQ(updateModeName(UpdateMode::NONE), "none");
    EXPECT_STREQ(updateModeName(UpdateMode::AUTO_SINGLE),
                 "auto-single");
    EXPECT_STREQ(updateModeName(UpdateMode::AUTO_BLOCK), "auto-block");
    EXPECT_STREQ(updateModeName(UpdateMode::DELIBERATE), "deliberate");

    EXPECT_STREQ(procStateName(ProcState::READY), "ready");
    EXPECT_STREQ(procStateName(ProcState::RUNNING), "running");
    EXPECT_STREQ(procStateName(ProcState::BLOCKED), "blocked");
    EXPECT_STREQ(procStateName(ProcState::EXITED), "exited");
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    EXPECT_NO_THROW(SHRIMP_WARN("warn test ", 42));
    EXPECT_NO_THROW(SHRIMP_INFORM("inform test ", 1.5));
}

TEST(SystemStats, DumpContainsEveryComponent)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    ShrimpSystem sys(cfg);

    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();
    for (const char *key :
         {"node0.xpress.transactions", "node0.cache.hits",
          "node0.cpu.instructions", "node0.ni.pktsSent",
          "node0.kernel.contextSwitches", "node1.ni.pktsDelivered"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(SystemConfig, Paper16IsFourByFour)
{
    SystemConfig cfg = SystemConfig::paper16();
    EXPECT_EQ(cfg.meshWidth, 4u);
    EXPECT_EQ(cfg.meshHeight, 4u);
    EXPECT_EQ(cfg.numNodes(), 16u);
}

TEST(WriteBuffer, DrainedAtTracksOutstandingWrites)
{
    EventQueue eq;
    MainMemory mem(eq, "mem", 64 * 1024);
    XpressBus bus(eq, "bus");
    bus.addTarget(0, mem.size(), &mem);
    WriteBuffer wb(4);

    EXPECT_EQ(wb.drainedAt(0), 0u);
    std::uint32_t v = 1;
    wb.post(bus, 0x100, &v, 4, 0);
    wb.post(bus, 0x104, &v, 4, 0);
    Tick drained = wb.drainedAt(0);
    EXPECT_GT(drained, 0u);
    // After that tick everything has reached the bus.
    EXPECT_EQ(wb.drainedAt(drained), drained);
}

TEST(KernelAccounting, ChargeAttributesToContext)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    ShrimpSystem sys(cfg);
    Kernel &k = sys.kernel(0);
    Process *p = k.createProcess("p");

    Tick d = k.charge(&p->ctx, 120);
    EXPECT_EQ(d, 120 * sys.node(0).cpu.clockPeriod());
    EXPECT_EQ(p->ctx.kernelInstrs, 120u);

    // Null context: global accounting only.
    std::uint64_t before = sys.node(0).cpu.statGroup().name().size();
    (void)before;
    EXPECT_NO_THROW(k.charge(nullptr, 10));
}

TEST(Backplane, HopDistanceSymmetricAndTriangle)
{
    EventQueue eq;
    MeshBackplane mesh(eq, "mesh", 4, 4, Router::Params{});
    for (NodeId a = 0; a < 16; ++a) {
        EXPECT_EQ(mesh.hopDistance(a, a), 0u);
        for (NodeId b = 0; b < 16; ++b) {
            EXPECT_EQ(mesh.hopDistance(a, b), mesh.hopDistance(b, a));
            for (NodeId c = 0; c < 16; ++c) {
                EXPECT_LE(mesh.hopDistance(a, c),
                          mesh.hopDistance(a, b) +
                              mesh.hopDistance(b, c));
            }
        }
    }
}

TEST(EventQueueExtra, OneShotFiresExactlyOnce)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.run();
    eq.runUntil(1000);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueExtra, TeardownWithPendingOneShots)
{
    // One-shots never fired are reclaimed by the queue's destructor.
    auto eq = std::make_unique<EventQueue>();
    for (int i = 0; i < 16; ++i)
        eq->scheduleFn([] {}, 1000 + i);
    EXPECT_EQ(eq->size(), 16u);
    eq.reset();     // must not leak or crash
}

} // namespace
} // namespace shrimp
