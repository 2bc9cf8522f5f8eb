/**
 * @file
 * Unit tests for the Network Interface Page Table, including the
 * page-split mechanism of Section 3.2.
 */

#include <gtest/gtest.h>

#include "nic/nipt.hh"

namespace shrimp
{
namespace
{

TEST(Nipt, UnmappedByDefault)
{
    Nipt nipt(16);
    EXPECT_EQ(nipt.numPages(), 16u);
    OutLookup l = nipt.lookupOut(0x3123);
    EXPECT_FALSE(l.mapped);
    EXPECT_FALSE(nipt.mappedIn(3));
}

TEST(Nipt, WholePageOutMapping)
{
    Nipt nipt(16);
    NiptEntry &e = nipt.entry(3);
    e.outLow = OutMapping{UpdateMode::AUTO_SINGLE, 7, 42, 0};

    OutLookup l = nipt.lookupOut(pageBase(3) + 0x123);
    ASSERT_TRUE(l.mapped);
    EXPECT_EQ(l.mode, UpdateMode::AUTO_SINGLE);
    EXPECT_EQ(l.dstNode, 7u);
    EXPECT_EQ(l.dstAddr, pageBase(42) + 0x123);
    EXPECT_EQ(l.bytesToMappingEnd, PAGE_SIZE - 0x123);
}

TEST(Nipt, SplitPageTwoMappings)
{
    Nipt nipt(16);
    NiptEntry &e = nipt.entry(5);
    e.splitOffset = 0x800;
    e.outLow = OutMapping{UpdateMode::AUTO_SINGLE, 1, 10, 0};
    e.outHigh = OutMapping{UpdateMode::DELIBERATE, 2, 20, 0};

    OutLookup lo = nipt.lookupOut(pageBase(5) + 0x7FC);
    ASSERT_TRUE(lo.mapped);
    EXPECT_EQ(lo.dstNode, 1u);
    EXPECT_EQ(lo.mode, UpdateMode::AUTO_SINGLE);
    EXPECT_EQ(lo.bytesToMappingEnd, 4u);    // clipped at the split

    OutLookup hi = nipt.lookupOut(pageBase(5) + 0x800);
    ASSERT_TRUE(hi.mapped);
    EXPECT_EQ(hi.dstNode, 2u);
    EXPECT_EQ(hi.mode, UpdateMode::DELIBERATE);
    EXPECT_EQ(hi.dstAddr, pageBase(20) + 0x800);
    EXPECT_EQ(hi.bytesToMappingEnd, PAGE_SIZE - 0x800);
}

TEST(Nipt, SplitWithOnlyHighHalf)
{
    Nipt nipt(16);
    NiptEntry &e = nipt.entry(6);
    e.splitOffset = 0x100;
    e.outHigh = OutMapping{UpdateMode::AUTO_BLOCK, 3, 30, 0};

    EXPECT_FALSE(nipt.lookupOut(pageBase(6) + 0x80).mapped);
    EXPECT_TRUE(nipt.lookupOut(pageBase(6) + 0x100).mapped);
}

TEST(Nipt, OffsetDeltaShiftsDestination)
{
    // A non-page-aligned mapping: source offset 0x100 lands at
    // destination offset 0x300.
    Nipt nipt(16);
    NiptEntry &e = nipt.entry(7);
    e.splitOffset = 0x100;
    e.outHigh = OutMapping{UpdateMode::AUTO_SINGLE, 1, 11, 0x200};

    OutLookup l = nipt.lookupOut(pageBase(7) + 0x100);
    ASSERT_TRUE(l.mapped);
    EXPECT_EQ(l.dstAddr, pageBase(11) + 0x300);
}

TEST(Nipt, NegativeDeltaShiftsBackward)
{
    Nipt nipt(16);
    NiptEntry &e = nipt.entry(8);
    e.outLow = OutMapping{UpdateMode::AUTO_SINGLE, 1, 12, -0x80};
    OutLookup l = nipt.lookupOut(pageBase(8) + 0x100);
    EXPECT_EQ(l.dstAddr, pageBase(12) + 0x80);
}

TEST(Nipt, MappedInAndSources)
{
    Nipt nipt(16);
    NiptEntry &e = nipt.entry(9);
    e.mappedIn = true;
    EXPECT_TRUE(nipt.mappedIn(9));
    EXPECT_TRUE(e.interruptOnArrival == false);
    EXPECT_FALSE(nipt.mappedIn(10));
    // Out-of-range page numbers are simply unmapped. The volatile
    // keeps GCC from constant-folding 100 into the inlined lookup,
    // which trips a false-positive -Warray-bounds on the guarded
    // (never-executed) subscript.
    volatile PageNum big = 100;
    EXPECT_FALSE(nipt.mappedIn(big));
    EXPECT_FALSE(nipt.lookupOut(pageBase(big)).mapped);
}

TEST(Nipt, OutOfRangeEntryPanics)
{
    Nipt nipt(4);
    EXPECT_THROW(nipt.entry(4), std::logic_error);
}

} // namespace
} // namespace shrimp
