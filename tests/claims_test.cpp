/**
 * @file
 * Unit tests for the claims checker behind shrimp_claims: synthetic
 * rows that break one claim of each kind must fail exactly that claim,
 * under its id; a passing row set fails nothing.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "claims.hh"
#include "sim/json.hh"

namespace shrimp
{
namespace claims
{
namespace
{

/** One claim of each kind the real table uses. */
const std::vector<Claim> table = {
    {"EXACT", "Single", "send", eq(4), "exact"},
    {"OPEN", "Lat/*", "us", inside(0.5, 2.0), "open range, every match"},
    {"CLOSED", "Bw", "MBps", in(30, 33), "closed range"},
    {"CROSS", "Sweep/2", "stalls", rel(Op::LT, 1, "Sweep/1", {"stalls"}),
     "relation to another row"},
    {"PEAK", "Incast/400", "goodput",
     rel(Op::GE, 0.8, "Incast/*", {"goodput"}),
     "relation to the sweep max"},
    {"SUM", "Part", "rejects",
     rel(Op::GE, 1, "", {"fenced", "drops"}),
     "relation to a sum of the same row's metrics"},
};

/** Rows on which every claim holds, several at their boundary. */
Rows
passing()
{
    return {
        {"Single", {{"send", 4}}},
        {"Lat/1", {{"us", 1.5}}},
        {"Lat/2", {{"us", 1.9}}},
        {"Bw", {{"MBps", 33}}},
        {"Sweep/1", {{"stalls", 44}}},
        {"Sweep/2", {{"stalls", 22}}},
        {"Incast/100", {{"goodput", 5}}},
        {"Incast/400", {{"goodput", 4}}},
        {"Part", {{"rejects", 15}, {"fenced", 5}, {"drops", 10}}},
    };
}

Row &
row(Rows &rows, const std::string &name)
{
    for (Row &r : rows) {
        if (r.name == name)
            return r;
    }
    ADD_FAILURE() << "no row " << name;
    return rows.front();
}

void
dropRow(Rows &rows, const std::string &name)
{
    std::erase_if(rows, [&](const Row &r) { return r.name == name; });
}

std::set<std::string>
failedIds(const Rows &rows)
{
    std::set<std::string> ids;
    for (const Verdict &v : check(rows, table)) {
        if (!v.pass) {
            EXPECT_FALSE(v.error.empty()) << v.claim->id;
            ids.insert(v.claim->id);
        }
    }
    return ids;
}

using Ids = std::set<std::string>;

TEST(Claims, PassingRowSetFailsNothing)
{
    std::vector<Verdict> verdicts = check(passing(), table);
    // The Lat/* pattern yields one verdict per matching row.
    ASSERT_EQ(verdicts.size(), table.size() + 1);
    for (const Verdict &v : verdicts)
        EXPECT_TRUE(v.pass) << v.claim->id << ": " << v.error;
    EXPECT_EQ(verdicts[1].row, "Lat/1");
    EXPECT_EQ(verdicts[2].row, "Lat/2");
    EXPECT_EQ(verdicts[5].bound, ">= 0.8 x max(Incast/*).goodput = 4");
    EXPECT_EQ(verdicts[6].bound, ">= fenced + drops = 15");
}

TEST(Claims, ExactClaimFails)
{
    Rows rows = passing();
    row(rows, "Single").metrics["send"] = 5;
    EXPECT_EQ(failedIds(rows), Ids{"EXACT"});
}

TEST(Claims, RangeClaimsFailAtTheirOpenAndClosedEnds)
{
    Rows rows = passing();
    row(rows, "Lat/2").metrics["us"] = 2.0;
    EXPECT_EQ(failedIds(rows), Ids{"OPEN"});

    rows = passing();
    row(rows, "Bw").metrics["MBps"] = 33.01;
    EXPECT_EQ(failedIds(rows), Ids{"CLOSED"});
    row(rows, "Bw").metrics["MBps"] = 29.99;
    EXPECT_EQ(failedIds(rows), Ids{"CLOSED"});
}

TEST(Claims, CrossRowRelationFails)
{
    Rows rows = passing();
    row(rows, "Sweep/2").metrics["stalls"] = 44;
    EXPECT_EQ(failedIds(rows), Ids{"CROSS"});

    rows = passing();
    row(rows, "Part").metrics["drops"] = 11;
    EXPECT_EQ(failedIds(rows), Ids{"SUM"});
}

TEST(Claims, SweepMaxRelationFails)
{
    // A new peak elsewhere in the sweep raises the bar for Incast/400.
    Rows rows = passing();
    row(rows, "Incast/100").metrics["goodput"] = 5.1;
    EXPECT_EQ(failedIds(rows), Ids{"PEAK"});

    // The row under test is part of its own sweep.
    rows = passing();
    dropRow(rows, "Incast/100");
    EXPECT_TRUE(failedIds(rows).empty());
}

TEST(Claims, MissingRowOrMetricFails)
{
    Rows rows = passing();
    dropRow(rows, "Single");
    EXPECT_EQ(failedIds(rows), Ids{"EXACT"});
    std::vector<Verdict> verdicts = check(rows, table);
    EXPECT_EQ(verdicts[0].row, "Single");
    EXPECT_EQ(verdicts[0].error, "no row matches Single");

    rows = passing();
    dropRow(rows, "Lat/1");
    dropRow(rows, "Lat/2");
    EXPECT_EQ(failedIds(rows), Ids{"OPEN"});

    rows = passing();
    row(rows, "Lat/1").metrics.erase("us");
    EXPECT_EQ(failedIds(rows), Ids{"OPEN"});

    // A relation whose other side is missing fails too.
    rows = passing();
    dropRow(rows, "Sweep/1");
    EXPECT_EQ(failedIds(rows), Ids{"CROSS"});

    rows = passing();
    row(rows, "Part").metrics.erase("fenced");
    EXPECT_EQ(failedIds(rows), Ids{"SUM"});
}

TEST(Claims, PatternsMatchAnyRunOfCharacters)
{
    EXPECT_TRUE(matches("Incast/*", "Incast/400"));
    EXPECT_TRUE(matches("FlowControl_*", "FlowControl_InFifo/1024"));
    EXPECT_TRUE(matches("*", "anything"));
    EXPECT_TRUE(matches("A*B*C", "AxxBxxBxC"));
    EXPECT_TRUE(matches("Single", "Single"));
    EXPECT_FALSE(matches("Single", "SingleBuffering"));
    EXPECT_FALSE(matches("Incast/*", "AllToAll/50"));
    EXPECT_FALSE(matches("A*B", "AxxBx"));
}

TEST(Claims, JsonHoldsRowsAndVerdicts)
{
    Rows rows = passing();
    row(rows, "Single").metrics["send"] = 5;
    row(rows, "Lat/1").metrics["us"] = 1.1 + 0.2;
    std::vector<Verdict> verdicts = check(rows, table);
    std::ostringstream out;
    writeJson(out, rows, verdicts);

    json::Value root = json::parse(out.str());
    EXPECT_EQ(root.find("failed")->number, 1);
    const json::Value *jrows = root.find("rows");
    ASSERT_EQ(jrows->arr.size(), rows.size());
    EXPECT_EQ(jrows->arr[1].find("name")->str, "Lat/1");
    // 17 significant digits: every value reads back bit-identical.
    EXPECT_EQ(jrows->arr[1].find("metrics")->find("us")->number,
              1.1 + 0.2);
    const json::Value *jclaims = root.find("claims");
    ASSERT_EQ(jclaims->arr.size(), verdicts.size());
    const json::Value &first = jclaims->arr[0];
    EXPECT_EQ(first.find("id")->str, "EXACT");
    EXPECT_EQ(first.find("value")->number, 5);
    EXPECT_EQ(first.find("bound")->str, "== 4");
    EXPECT_EQ(first.find("source")->str, "exact");
    EXPECT_FALSE(first.find("pass")->boolean);
    EXPECT_TRUE(jclaims->arr[1].find("pass")->boolean);
}

} // namespace
} // namespace claims
} // namespace shrimp
