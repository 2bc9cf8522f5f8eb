/**
 * @file
 * Tests for the DMA-claim backoff strategy (paper Section 4.3): a
 * busy command-page read returns the words remaining, so a claimant
 * can back off proportionally instead of hammering the memory bus
 * with locked CMPXCHG cycles.
 */

#include <gtest/gtest.h>

#include "msg/deliberate.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;
using test::poke32;

/**
 * Two processes on node 0, each sending one full page via deliberate
 * update, contending for the single DMA engine. Returns the total
 * locked bus operations executed.
 */
std::uint64_t
runContention(bool with_backoff, ShrimpSystem &sys)
{
    Process *recv = sys.kernel(1).createProcess("recv");
    Addr dst = recv->allocate(2);

    for (int i = 0; i < 2; ++i) {
        Process *p =
            sys.kernel(0).createProcess("s" + std::to_string(i));
        Addr src = p->allocate(1);
        sys.kernel(0).mapDirect(*p, src, 1, sys.kernel(1), *recv,
                                dst + i * PAGE_SIZE,
                                UpdateMode::DELIBERATE);
        Addr cmd = sys.kernel(0).mapCommandPages(*p, src, 1);
        std::int64_t delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(src);

        for (Addr off = 0; off < PAGE_SIZE; off += 4)
            poke32(sys, 0, *p, src + off,
                   static_cast<std::uint32_t>(0x7100 + i));

        Program prog(p->name());
        prog.movi(R3, src);
        prog.movi(R1, PAGE_SIZE);
        if (with_backoff) {
            msg::emitDeliberateSendBackoff(prog, delta, "bo");
        } else {
            msg::emitDeliberateSendSingle(prog, delta, "s", "multi");
        }
        prog.label("wait");
        msg::emitDeliberateCheck(prog);
        prog.jnz("wait");
        prog.halt();
        if (!with_backoff) {
            prog.label("multi");
            prog.halt();
        }
        loadProgram(sys.kernel(0), *p, std::move(prog));
    }
    Program pr("recv");
    pr.halt();
    loadProgram(sys.kernel(1), *recv, std::move(pr));

    sys.startAll();
    EXPECT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);

    // Both pages arrived intact.
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(peek32(sys, 1, *recv, dst + i * PAGE_SIZE),
                  0x7100u + i);
    }
    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("node0.ni.dma.transfers"), 2u);
    return snap.at("node0.cpu.lockedOps");
}

TEST(DmaBackoff, BothStrategiesCompleteTransfers)
{
    // A short quantum interleaves the two claimants while the first
    // transfer is still draining. A small outgoing FIFO keeps the DMA
    // engine busy for the whole EISA-limited drain (~124 us/page)
    // instead of letting it dump the page into buffering, so the
    // second claimant really contends.
    SystemConfig cfg = test::twoNodeConfig();
    cfg.kernel.quantum = 20 * ONE_US;
    cfg.ni.outFifo.capacityBytes = 2048;
    cfg.ni.outFifo.highThresholdBytes = 2048;   // never interrupts
    cfg.ni.outFifo.lowThresholdBytes = 512;

    ShrimpSystem naive(cfg);
    std::uint64_t naive_locked = runContention(false, naive);

    ShrimpSystem backoff(cfg);
    std::uint64_t backoff_locked = runContention(true, backoff);

    // Same work done; the backoff claimant issues far fewer locked
    // bus cycles while the engine is busy.
    EXPECT_GE(naive_locked, 2u);
    EXPECT_GE(backoff_locked, 2u);
    EXPECT_LT(backoff_locked * 3, naive_locked)
        << "naive=" << naive_locked << " backoff=" << backoff_locked;
}

TEST(DmaBackoff, UncontendedCostsStayLow)
{
    // With a free engine the backoff macro claims on the first try,
    // exactly like the plain macro.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::DELIBERATE);
    Addr cmd = sys.kernel(0).mapCommandPages(*a, src, 1);
    std::int64_t delta = static_cast<std::int64_t>(cmd) -
                         static_cast<std::int64_t>(src);
    poke32(sys, 0, *a, src, 0x99);

    Program pa("a");
    pa.movi(R3, src);
    pa.movi(R1, 64);
    msg::emitDeliberateSendBackoff(pa, delta, "bo");
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);
    EXPECT_EQ(peek32(sys, 1, *b, dst), 0x99u);
    EXPECT_EQ(sys.snapshot().at("node0.cpu.lockedOps"), 1u);
}

} // namespace
} // namespace shrimp
