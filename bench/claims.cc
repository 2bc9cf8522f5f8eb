/**
 * @file
 * The claims checker and the CLAIMS.json writer (see claims.hh).
 */

#include "claims.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>

#include "sim/json.hh"

namespace shrimp
{
namespace claims
{

namespace
{

Bound
constant(Op op, double lo, double hi = 0.0)
{
    Bound b;
    b.op = op;
    b.lo = lo;
    b.hi = hi;
    return b;
}

/** Shortest text that reads back as @p v. */
std::string
num(double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

const char *
opText(Op op)
{
    switch (op) {
      case Op::EQ: return "==";
      case Op::LT: return "<";
      case Op::LE: return "<=";
      case Op::GT: return ">";
      case Op::GE: return ">=";
      case Op::IN:
      case Op::INSIDE: return "in";
    }
    return "?";
}

bool
holds(Op op, double v, double lo, double hi)
{
    switch (op) {
      case Op::EQ: return v == lo;
      case Op::LT: return v < lo;
      case Op::LE: return v <= lo;
      case Op::GT: return v > lo;
      case Op::GE: return v >= lo;
      case Op::IN: return lo <= v && v <= hi;
      case Op::INSIDE: return lo < v && v < hi;
    }
    return false;
}

/** @p row's value of @p metric, or an error naming what is missing. */
bool
lookup(const Row &row, const std::string &metric, double &value,
       std::string &error)
{
    auto it = row.metrics.find(metric);
    if (it == row.metrics.end()) {
        error = "row " + row.name + " has no metric " + metric;
        return false;
    }
    value = it->second;
    return true;
}

/**
 * Resolve a relation's right-hand side for the row under test @p self:
 * factor * (sum of the metrics), maximised over the rows @p b.row
 * matches. Also renders the relation as text for the verdict.
 */
bool
resolve(const Rows &rows, const Row &self, const Bound &b, double &out,
        std::string &text, std::string &error)
{
    std::string sum;
    for (const std::string &m : b.metrics)
        sum += (sum.empty() ? "" : " + ") + m;
    if (b.row.find('*') != std::string::npos)
        text = "max(" + b.row + ")." + sum;
    else if (!b.row.empty())
        text = b.row + "." + sum;
    else
        text = sum;
    if (b.lo != 1.0)
        text = num(b.lo) + " x " + text;

    bool found = false;
    out = 0.0;
    for (const Row &r : rows) {
        if (b.row.empty() ? &r != &self : !matches(b.row, r.name))
            continue;
        double total = 0.0;
        for (const std::string &m : b.metrics) {
            double v = 0.0;
            if (!lookup(r, m, v, error))
                return false;
            total += v;
        }
        out = found ? std::max(out, total) : total;
        found = true;
    }
    if (!found) {
        error = "no row matches " + b.row;
        return false;
    }
    out *= b.lo;
    text += " = " + num(out);
    return true;
}

Verdict
judge(const Rows &rows, const Row &row, const Claim &c)
{
    Verdict v;
    v.claim = &c;
    v.row = row.name;
    const Bound &b = c.bound;
    double lo = b.lo;
    std::string text;
    if (b.op == Op::IN)
        text = "[" + num(b.lo) + ", " + num(b.hi) + "]";
    else if (b.op == Op::INSIDE)
        text = "(" + num(b.lo) + ", " + num(b.hi) + ")";
    else if (b.metrics.empty())
        text = num(b.lo);
    bool ok =
        b.metrics.empty() || resolve(rows, row, b, lo, text, v.error);
    v.bound = std::string(opText(b.op)) + " " + text;
    if (!ok || !lookup(row, c.metric, v.value, v.error))
        return v;
    v.pass = holds(b.op, v.value, lo, b.hi);
    if (!v.pass)
        v.error = c.metric + " = " + num(v.value) + " is not " + v.bound;
    return v;
}

/** A JSON number, or null where JSON has none. */
void
writeNumber(std::ostream &out, double v)
{
    if (std::isfinite(v))
        out << v;
    else
        out << "null";
}

} // namespace

Bound eq(double v) { return constant(Op::EQ, v); }
Bound gt(double v) { return constant(Op::GT, v); }
Bound ge(double v) { return constant(Op::GE, v); }
Bound in(double lo, double hi) { return constant(Op::IN, lo, hi); }
Bound inside(double lo, double hi) { return constant(Op::INSIDE, lo, hi); }

Bound
rel(Op op, double factor, std::string row,
    std::vector<std::string> metrics)
{
    Bound b = constant(op, factor);
    b.row = std::move(row);
    b.metrics = std::move(metrics);
    return b;
}

bool
matches(std::string_view pattern, std::string_view name)
{
    if (pattern.empty())
        return name.empty();
    if (pattern[0] != '*') {
        return !name.empty() && pattern[0] == name[0] &&
               matches(pattern.substr(1), name.substr(1));
    }
    for (std::size_t i = 0; i <= name.size(); ++i) {
        if (matches(pattern.substr(1), name.substr(i)))
            return true;
    }
    return false;
}

std::vector<Verdict>
check(const Rows &rows, const std::vector<Claim> &table)
{
    std::vector<Verdict> verdicts;
    for (const Claim &c : table) {
        bool any = false;
        for (const Row &row : rows) {
            if (matches(c.row, row.name)) {
                verdicts.push_back(judge(rows, row, c));
                any = true;
            }
        }
        if (!any) {
            Verdict v;
            v.claim = &c;
            v.row = c.row;
            v.error = "no row matches " + c.row;
            verdicts.push_back(v);
        }
    }
    return verdicts;
}

void
writeJson(std::ostream &out, const Rows &rows,
          const std::vector<Verdict> &verdicts)
{
    auto failed = std::count_if(verdicts.begin(), verdicts.end(),
                                [](const Verdict &v) { return !v.pass; });
    out << std::setprecision(17) << "{\n  \"failed\": " << failed
        << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out << (i ? ",\n" : "\n") << "    {\"name\": \""
            << json::escape(rows[i].name) << "\", \"metrics\": {";
        bool first = true;
        for (const auto &[metric, value] : rows[i].metrics) {
            out << (first ? "" : ", ") << "\"" << json::escape(metric)
                << "\": ";
            writeNumber(out, value);
            first = false;
        }
        out << "}}";
    }
    out << "\n  ],\n  \"claims\": [";
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        const Verdict &v = verdicts[i];
        out << (i ? ",\n" : "\n") << "    {\"id\": \""
            << json::escape(v.claim->id) << "\", \"row\": \""
            << json::escape(v.row) << "\", \"metric\": \""
            << json::escape(v.claim->metric) << "\", \"value\": ";
        writeNumber(out, v.value);
        out << ", \"bound\": \"" << json::escape(v.bound)
            << "\", \"source\": \"" << json::escape(v.claim->source)
            << "\", \"pass\": " << (v.pass ? "true" : "false");
        if (!v.pass)
            out << ", \"error\": \"" << json::escape(v.error) << "\"";
        out << "}";
    }
    out << "\n  ]\n}\n";
}

} // namespace claims
} // namespace shrimp
