/**
 * @file
 * Reliability tests: the per-packet CRC (Section 3.1) under injected
 * link faults. The SHRIMP backplane is assumed reliable; the CRC's
 * job is to *detect* rare network errors so corrupted data is never
 * silently written to user memory. These tests flip random payload
 * bits on the wire and verify every corruption is caught and dropped
 * and every delivered word is exact.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace shrimp
{
namespace
{

using test::loadProgram;
using test::peek32;

/**
 * Bit-flip corruption on every output link of one router, applied
 * after setup traffic (mappings) has gone through cleanly. This is
 * what the removed setErrorInjection() shim used to do; production
 * configuration goes through SystemConfig::linkFaults instead.
 */
void
corruptAllLinks(Router &router, double prob, std::uint64_t seed)
{
    FaultModel::Params params;
    params.corruptProb = prob;
    params.seed = seed;
    for (unsigned p = Router::LOCAL + 1; p < Router::NUM_PORTS; ++p)
        router.setFaultModel(static_cast<Router::Port>(p), params);
}

TEST(Reliability, EveryInjectedErrorCaughtNothingCorruptDelivered)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    // 30% of forwarded packets get one flipped payload bit.
    corruptAllLinks(sys.backplane().router(0), 0.3, 12345);

    constexpr int kStores = 200;
    Program pa("a");
    pa.movi(R2, 1);             // values 1..kStores (never 0)
    pa.movi(R3, kStores + 1);
    pa.movi(R1, src);
    pa.label("loop");
    pa.st(R1, 0, R2, 4);        // same word every time: every store
                                // is a packet, last intact one wins
    pa.addi(R2, 1);
    pa.cmp(R2, R3);
    pa.jl("loop");
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));

    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(20 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    std::uint64_t injected = snap.at("mesh.router0.faultCorrupts");
    ASSERT_GT(injected, 10u);   // the fault injector really ran

    // Exactly the corrupted packets were dropped; the rest arrived.
    EXPECT_EQ(snap.at("node1.ni.dropsCrc"), injected);
    EXPECT_EQ(snap.at("node1.ni.pktsDelivered") +
                  snap.at("node1.ni.dropsCrc"),
              static_cast<std::uint64_t>(kStores));

    // The destination word holds some in-sequence value, i.e. the
    // last *intact* packet -- never a corrupted payload.
    std::uint32_t final_word = peek32(sys, 1, *b, dst);
    EXPECT_GE(final_word, 1u);
    EXPECT_LE(final_word, static_cast<std::uint32_t>(kStores));
}

TEST(Reliability, CleanLinksDeliverEverything)
{
    ShrimpSystem sys(test::twoNodeConfig());
    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);
    // Probability zero: the injector must be a strict no-op.
    corruptAllLinks(sys.backplane().router(0), 0.0, 1);

    Program pa("a");
    pa.movi(R1, src);
    for (int i = 0; i < 32; ++i)
        pa.sti(R1, 4 * i, 0xF00 + i, 4);
    pa.halt();
    loadProgram(sys.kernel(0), *a, std::move(pa));
    Program pb("b");
    pb.halt();
    loadProgram(sys.kernel(1), *b, std::move(pb));

    sys.startAll();
    ASSERT_TRUE(sys.runUntilAllExited());
    sys.runFor(ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    EXPECT_EQ(snap.at("mesh.router0.faultCorrupts"), 0u);
    EXPECT_EQ(snap.at("node1.ni.dropsCrc"), 0u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(peek32(sys, 1, *b, dst + 4 * i),
                  static_cast<std::uint32_t>(0xF00 + i));
}

TEST(Reliability, FaultParamsValidatedAndClamped)
{
    // Out-of-range probabilities are clamped to [0,1] rather than
    // feeding nonsense into the per-packet sampling.
    FaultModel::Params p;
    p.dropProb = 1.7;
    p.corruptProb = -0.3;
    p.duplicateProb = 2.0;
    p.reorderProb = -1.0;
    FaultModel::Params v = FaultModel::validated(p);
    EXPECT_EQ(v.dropProb, 1.0);
    EXPECT_EQ(v.corruptProb, 0.0);
    EXPECT_EQ(v.duplicateProb, 1.0);
    EXPECT_EQ(v.reorderProb, 0.0);

    // The constructor itself validates, so a model built from bad
    // params already carries the repaired set.
    FaultModel fm(p, 1);
    EXPECT_EQ(fm.params().dropProb, 1.0);

    // In-range params pass through untouched.
    FaultModel::Params ok;
    ok.dropProb = 0.5;
    FaultModel::Params vok = FaultModel::validated(ok);
    EXPECT_EQ(vok.dropProb, 0.5);
}

} // namespace
} // namespace shrimp
