/**
 * @file
 * Rows and claims: the one mechanism that reports and gates the
 * reproduction's numbers.
 *
 * Every experiment (bench/bench_*.cpp) appends named rows, each a
 * metric -> value map of simulated results that the experiment fills
 * where it measures them. A claim is one line of a
 * data table: the rows it covers, one metric, a comparison and the
 * paper text or earlier gate it encodes. check() evaluates a table
 * against a row set and returns one verdict per covered row, so a
 * failure is reported under its claim id with the measured value and
 * the bound it missed. shrimp_claims (bench/shrimp_claims.cc) runs
 * every experiment, checks the table in process and writes both rows
 * and verdicts to CLAIMS.json.
 */

#ifndef SHRIMP_BENCH_CLAIMS_HH
#define SHRIMP_BENCH_CLAIMS_HH

#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shrimp
{
namespace claims
{

/** One experiment point's results, metric name -> value. */
using Metrics = std::map<std::string, double>;

/** One experiment point: a name such as `Incast/400` and its metrics. */
struct Row
{
    std::string name;
    Metrics metrics;
};

using Rows = std::vector<Row>;

/** Append an empty row named @p name and return its metrics to fill;
 *  the reference lasts until the next row is appended. */
inline Metrics &
newRow(Rows &rows, std::string name)
{
    return rows.emplace_back(Row{std::move(name), {}}).metrics;
}

enum class Op
{
    EQ,         //!< value == bound
    LT,         //!< value <  bound
    LE,         //!< value <= bound
    GT,         //!< value >  bound
    GE,         //!< value >= bound
    IN,         //!< lo <= value <= hi (closed range, constants only)
    INSIDE,     //!< lo <  value <  hi (open range, constants only)
};

/**
 * The right-hand side of a claim. With no @c metrics it is the
 * constant @c lo (and @c hi for the ranges). Otherwise it is a
 * relation: @c lo times the sum of @c metrics read from row
 * @c row -- the row under test when @c row is empty, and the maximum
 * over every match when @c row is a pattern.
 */
struct Bound
{
    Op op = Op::EQ;
    double lo = 0.0;
    double hi = 0.0;
    std::string row;
    std::vector<std::string> metrics;
};

/** value == @p v, and the other constant comparisons. */
Bound eq(double v);
Bound gt(double v);
Bound ge(double v);
/** lo <= value <= hi. */
Bound in(double lo, double hi);
/** lo < value < hi. */
Bound inside(double lo, double hi);
/** value OP factor * (sum of @p metrics in @p row); see Bound. */
Bound rel(Op op, double factor, std::string row,
          std::vector<std::string> metrics);

/**
 * One line of the claims table. @c row is a row name or a pattern in
 * which `*` matches any run of characters; the claim must hold on
 * every row it matches, and matching none fails it.
 */
struct Claim
{
    std::string id;         //!< paper or experiment id, e.g. "H3"
    std::string row;
    std::string metric;
    Bound bound;
    std::string source;     //!< the paper text or gate it encodes
};

/** The outcome of one claim on one row. */
struct Verdict
{
    const Claim *claim = nullptr;   //!< into the table given to check()
    std::string row;        //!< the row checked (the pattern if none)
    double value = std::numeric_limits<double>::quiet_NaN();
    std::string bound;      //!< the bound with relations resolved
    std::string error;      //!< why it failed; empty when it passed
    bool pass = false;
};

/** Does @p name match the row pattern @p pattern? */
bool matches(std::string_view pattern, std::string_view name);

/** Check every claim of @p table against @p rows. */
std::vector<Verdict> check(const Rows &rows,
                           const std::vector<Claim> &table);

/** Write rows (17 significant digits) and verdicts as JSON. */
void writeJson(std::ostream &out, const Rows &rows,
               const std::vector<Verdict> &verdicts);

} // namespace claims
} // namespace shrimp

#endif // SHRIMP_BENCH_CLAIMS_HH
