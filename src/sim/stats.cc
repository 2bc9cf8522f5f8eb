#include "sim/stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

#include "sim/json.hh"

namespace shrimp
{
namespace stats
{

namespace
{

void
printLine(std::ostream &os, const std::string &prefix,
          const std::string &name, double value, const std::string &desc)
{
    os << std::left << std::setw(44) << (prefix + name) << " "
       << std::right << std::setw(16) << value << "  # " << desc << "\n";
}

/** Start one member of the enclosing JSON object: `"key": `. */
void
jsonKey(std::ostream &os, bool &first, const std::string &key)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  \"" << json::escape(key) << "\": ";
}

/** A double as a JSON number (JSON has no inf/nan; clamp to 0). */
void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << 0;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

/** Does @p path match the Snapshot::sum() pattern @p pattern? */
bool
pathMatches(std::string_view pattern, std::string_view path)
{
    if (pattern.empty())
        return path.empty();
    if (pattern[0] != '*') {
        return !path.empty() && pattern[0] == path[0] &&
               pathMatches(pattern.substr(1), path.substr(1));
    }
    // The star swallows zero or more characters, but never a `.`.
    for (std::size_t i = 0;; ++i) {
        if (pathMatches(pattern.substr(1), path.substr(i)))
            return true;
        if (i == path.size() || path[i] == '.')
            return false;
    }
}

} // namespace

void
Counter::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name(), static_cast<double>(_value), desc());
}

void
Counter::dumpJson(std::ostream &os, const std::string &prefix,
                  bool &first) const
{
    jsonKey(os, first, prefix + name());
    os << _value;
}

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name(), _value, desc());
}

void
Scalar::dumpJson(std::ostream &os, const std::string &prefix,
                 bool &first) const
{
    jsonKey(os, first, prefix + name());
    jsonNumber(os, _value);
}

void
Peak::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name(), _value, desc());
}

void
Peak::dumpJson(std::ostream &os, const std::string &prefix,
               bool &first) const
{
    jsonKey(os, first, prefix + name());
    jsonNumber(os, _value);
}

double
Distribution::stddev() const
{
    if (_count < 2)
        return 0.0;
    // Population variance; _m2 is non-negative by construction, so no
    // cancellation guard is needed (the sum-of-squares formula needed
    // one, and still lost every significant digit for mean >> stddev).
    return std::sqrt(_m2 / static_cast<double>(_count));
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name() + ".count",
              static_cast<double>(_count), desc());
    printLine(os, prefix, name() + ".mean", mean(), desc());
    printLine(os, prefix, name() + ".min", minValue(), desc());
    printLine(os, prefix, name() + ".max", maxValue(), desc());
    printLine(os, prefix, name() + ".stddev", stddev(), desc());
}

void
Distribution::dumpJson(std::ostream &os, const std::string &prefix,
                       bool &first) const
{
    jsonKey(os, first, prefix + name());
    os << "{\"count\": " << _count << ", \"mean\": ";
    jsonNumber(os, mean());
    os << ", \"min\": ";
    jsonNumber(os, minValue());
    os << ", \"max\": ";
    jsonNumber(os, maxValue());
    os << ", \"stddev\": ";
    jsonNumber(os, stddev());
    os << "}";
}

void
Distribution::reset()
{
    _count = 0;
    _mean = 0.0;
    _m2 = 0.0;
    _min = std::numeric_limits<double>::infinity();
    _max = -std::numeric_limits<double>::infinity();
}

void
Histogram::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix, name() + ".count",
              static_cast<double>(_count), desc());
    printLine(os, prefix, name() + ".mean", mean(), desc());
    printLine(os, prefix, name() + ".min",
              static_cast<double>(minValue()), desc());
    printLine(os, prefix, name() + ".max",
              static_cast<double>(maxValue()), desc());
    for (unsigned b = 0; b < _buckets.size(); ++b) {
        if (!_buckets[b])
            continue;
        printLine(os, prefix,
                  name() + ".ge_" + std::to_string(bucketLow(b)),
                  static_cast<double>(_buckets[b]),
                  "samples in log2 bucket");
    }
}

void
Histogram::dumpJson(std::ostream &os, const std::string &prefix,
                    bool &first) const
{
    jsonKey(os, first, prefix + name());
    os << "{\"count\": " << _count << ", \"mean\": ";
    jsonNumber(os, mean());
    os << ", \"min\": " << minValue() << ", \"max\": " << maxValue()
       << ", \"buckets\": [";
    bool bfirst = true;
    for (unsigned b = 0; b < _buckets.size(); ++b) {
        if (!_buckets[b])
            continue;
        if (!bfirst)
            os << ", ";
        bfirst = false;
        os << "{\"ge\": " << bucketLow(b) << ", \"count\": "
           << _buckets[b] << "}";
    }
    os << "]}";
}

void
Histogram::reset()
{
    _count = 0;
    _sum = 0.0;
    _min = std::numeric_limits<std::uint64_t>::max();
    _max = 0;
    _buckets.clear();
}

Group::Group(std::string name, Group *parent)
    : _name(std::move(name))
{
    if (parent)
        parent->_children.push_back(this);
}

void
Group::forEach(const StatFn &fn, const std::string &prefix) const
{
    std::string path = prefix + _name + ".";
    for (const Stat *s : _stats)
        fn(path, *s);
    for (const Group *g : _children)
        g->forEach(fn, path);
}

void
Group::dump(std::ostream &os) const
{
    forEach([&os](const std::string &prefix, const Stat &s) {
        s.dump(os, prefix);
    });
}

void
Group::dumpJson(std::ostream &os) const
{
    bool first = true;
    os << "{\n";
    dumpJsonInto(os, first);
    os << "\n}\n";
}

void
Group::dumpJsonInto(std::ostream &os, bool &first) const
{
    forEach([&os, &first](const std::string &prefix, const Stat &s) {
        s.dumpJson(os, prefix, first);
    });
}

void
Group::snapshotInto(Snapshot &snap) const
{
    forEach([&snap](const std::string &prefix, const Stat &s) {
        if (const auto *c = dynamic_cast<const Counter *>(&s))
            snap.values[prefix + c->name()] += c->value();
    });
}

void
Group::resetAll()
{
    for (Stat *s : _stats)
        s->reset();
    for (Group *g : _children)
        g->resetAll();
}

std::uint64_t
Snapshot::sum(std::string_view pattern) const
{
    std::uint64_t total = 0;
    for (const auto &[path, value] : values) {
        if (pathMatches(pattern, path))
            total += value;
    }
    return total;
}

} // namespace stats
} // namespace shrimp
