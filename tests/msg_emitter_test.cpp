/**
 * @file
 * Direct unit tests for the message-library emitters: static shape of
 * the emitted code (instruction counts of the fast paths, Table 1's
 * raw material) and the receive-path coalescing that lets the EISA
 * drain approach its burst bandwidth.
 */

#include <gtest/gtest.h>

#include "msg/deliberate.hh"
#include "msg/double_buffer.hh"
#include "msg/single_buffer.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

/** Count non-MARK instructions emitted between two program sizes. */
std::size_t
emittedBetween(const Program &p, std::size_t from)
{
    return p.size() - from;
}

TEST(Emitters, StaticShapeMatchesTable1)
{
    Program p("shape");

    std::size_t s0 = p.size();
    msg::emitSbWaitEmpty(p, "a");
    EXPECT_EQ(emittedBetween(p, s0), 3u);

    s0 = p.size();
    msg::emitSbPublish(p, 32);
    EXPECT_EQ(emittedBetween(p, s0), 1u);

    s0 = p.size();
    msg::emitSbWaitData(p, "b");
    EXPECT_EQ(emittedBetween(p, s0), 4u);

    s0 = p.size();
    msg::emitSbRelease(p);
    EXPECT_EQ(emittedBetween(p, s0), 1u);

    s0 = p.size();
    msg::emitDbSwap(p);
    EXPECT_EQ(emittedBetween(p, s0), 1u);

    s0 = p.size();
    msg::emitDb2Send(p);
    EXPECT_EQ(emittedBetween(p, s0), 3u);

    s0 = p.size();
    msg::emitDb2Recv(p, "c");
    EXPECT_EQ(emittedBetween(p, s0), 5u);

    s0 = p.size();
    msg::emitDb3Send(p, "d");
    EXPECT_EQ(emittedBetween(p, s0), 5u);

    s0 = p.size();
    msg::emitDb3Recv(p, "e");
    EXPECT_EQ(emittedBetween(p, s0), 5u);

    // The deliberate-send fast path: 13 instructions up to and
    // including the claim retry branch.
    s0 = p.size();
    msg::emitDeliberateSendSingle(p, 0x1000, "f", "f_multi");
    EXPECT_EQ(emittedBetween(p, s0), 13u);

    s0 = p.size();
    msg::emitDeliberateCheck(p);
    EXPECT_EQ(emittedBetween(p, s0), 2u);
}

TEST(Emitters, CopyWordsAttributesPerWordCostsToData)
{
    // 4 fixed instructions + a 7-instruction body per word.
    Program p("copy");
    std::size_t s0 = p.size();
    msg::emitCopyWords(p, R1, R2, R3, region::NONE, "cp");
    // Static size: 4 fixed + 7 loop body + 2 MARKs (free).
    EXPECT_EQ(emittedBetween(p, s0), 13u);
}

TEST(NicDrain, ContiguousPacketsCoalesceIntoOneEisaBurst)
{
    // A deliberate-update page arrives as 8 contiguous 512-byte
    // chunks; the receive engine must drain them in far fewer EISA
    // bursts than packets (amortizing the per-burst setup), which is
    // what lets H3 approach the 33 MB/s burst limit.
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::DELIBERATE);

    Translation t = a->space().translate(src, false);
    ASSERT_TRUE(sys.node(0).ni.dma().start(t.paddr, 1024));

    Program pa("a");
    pa.halt();
    Program pb("b");
    pb.halt();
    pa.finalize();
    pb.finalize();
    sys.kernel(0).loadAndReady(*a,
                               std::make_shared<Program>(std::move(pa)));
    sys.kernel(1).loadAndReady(*b,
                               std::make_shared<Program>(std::move(pb)));
    sys.startAll();
    sys.runUntilAllExited();
    sys.runFor(10 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered"), 8u);
    EXPECT_GE(snap.at("node1.ni.bytesDelivered"), 4096u);
    // Far fewer EISA bursts than packets: contiguous chunks coalesce.
    EXPECT_LE(snap.at("node1.eisa.bursts"), 4u);
    EXPECT_GE(snap.at("node1.eisa.bytes"), 4096u);
}

} // namespace
} // namespace shrimp
