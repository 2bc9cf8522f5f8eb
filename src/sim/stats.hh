/**
 * @file
 * A small statistics package: scalar counters, gauges, distributions,
 * log-2 histograms, and hierarchical stat groups with text and JSON
 * dumping. Modeled loosely on the gem5 stats package, sized for this
 * simulator.
 */

#ifndef SHRIMP_SIM_STATS_HH
#define SHRIMP_SIM_STATS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace shrimp
{
namespace stats
{

/** Base class for all statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    virtual ~Stat() = default;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Print one or more "name value # desc" lines. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /**
     * Emit one JSON member `"prefix.name": <value>` (a bare number for
     * scalars, an object for distributions/histograms). @p first is
     * the enclosing object's comma state, updated in place.
     */
    virtual void dumpJson(std::ostream &os, const std::string &prefix,
                          bool &first) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** Monotonically increasing 64-bit event counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }

    std::uint64_t value() const { return _value; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os, const std::string &prefix,
                  bool &first) const override;
    void reset() override { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** A scalar that can be set to arbitrary values (gauges, ratios). */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator=(double v) { _value = v; return *this; }
    double value() const { return _value; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os, const std::string &prefix,
                  bool &first) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/**
 * A self-tracking high-water mark: observe() keeps the maximum seen
 * since construction or the last reset(). Unlike a plain Scalar fed
 * from shadow state, the peak honestly restarts after a stats reset.
 */
class Peak : public Stat
{
  public:
    using Stat::Stat;

    void
    observe(double v)
    {
        if (v > _value)
            _value = v;
    }

    double value() const { return _value; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os, const std::string &prefix,
                  bool &first) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/**
 * A sampled distribution tracking count, min, max, mean and standard
 * deviation. Uses Welford's online algorithm: the naive sum-of-squares
 * formula cancels catastrophically when mean >> stddev (tick-valued
 * latencies are ~1e6 and worse), which this package once got wrong.
 */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        ++_count;
        double delta = v - _mean;
        _mean += delta / static_cast<double>(_count);
        _m2 += delta * (v - _mean);
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _mean * static_cast<double>(_count); }
    double mean() const { return _count ? _mean : 0.0; }
    double minValue() const { return _count ? _min : 0.0; }
    double maxValue() const { return _count ? _max : 0.0; }
    double stddev() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os, const std::string &prefix,
                  bool &first) const override;
    void reset() override;

  private:
    std::uint64_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;   //!< sum of squared deviations from the mean
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * A log-2 bucketed histogram of non-negative integer samples (ticks,
 * queue depths). Bucket 0 holds zeros; bucket b >= 1 holds samples in
 * [2^(b-1), 2^b). Also tracks count/min/max/mean so a histogram can
 * stand in for a Distribution in machine-readable output.
 */
class Histogram : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(std::uint64_t v)
    {
        ++_count;
        _sum += static_cast<double>(v);
        _min = std::min(_min, v);
        _max = std::max(_max, v);
        unsigned b = bucketOf(v);
        if (b >= _buckets.size())
            _buckets.resize(b + 1, 0);
        ++_buckets[b];
    }

    /** Bucket index for @p v: 0 for 0, else 1 + floor(log2 v). */
    static unsigned
    bucketOf(std::uint64_t v)
    {
        return static_cast<unsigned>(std::bit_width(v));
    }

    /** Smallest sample value landing in bucket @p b. */
    static std::uint64_t
    bucketLow(unsigned b)
    {
        return b ? std::uint64_t{1} << (b - 1) : 0;
    }

    std::uint64_t count() const { return _count; }
    double mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }
    std::uint64_t minValue() const { return _count ? _min : 0; }
    std::uint64_t maxValue() const { return _count ? _max : 0; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os, const std::string &prefix,
                  bool &first) const override;
    void reset() override;

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    std::uint64_t _min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t _max = 0;
    std::vector<std::uint64_t> _buckets;
};

/**
 * Every Counter of one or more stat trees, keyed by full dotted path
 * (`node3.ni.ecnEchoesSent`, `mesh.router2.misroutes`). The one place
 * reports, tools and benches read counters from: a new Counter shows
 * up here without any other edit.
 */
struct Snapshot
{
    std::map<std::string, std::uint64_t> values;

    /**
     * Total of every counter whose path matches @p pattern. `*`
     * matches any run of characters within one path component (never
     * a `.`), so `node*.ni.ecnEchoesSent` sums across nodes; a literal
     * path selects one counter; no match sums to 0.
     */
    std::uint64_t sum(std::string_view pattern) const;
};

/**
 * A group of statistics belonging to one component. Groups form a tree
 * mirroring the SimObject hierarchy; forEach() walks the tree, and
 * every dump is one visitor over that walk.
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return _name; }

    /** Register a stat owned by the component (not by the group). */
    void addStat(Stat *s) { _stats.push_back(s); }

    /** Dump this group's stats and all children, prefixed by path. */
    void dump(std::ostream &os) const;

    /** Dump this tree as one flat JSON object keyed by stat path. */
    void dumpJson(std::ostream &os) const;

    /**
     * Emit this tree's members into an enclosing JSON object (shared
     * comma state @p first); lets a caller merge many groups into one
     * document. Keys are full dotted stat paths.
     */
    void dumpJsonInto(std::ostream &os, bool &first) const;

    /** Add this tree's Counters to @p snap, keyed by stat path. */
    void snapshotInto(Snapshot &snap) const;

    /** Reset this group's stats and all children. */
    void resetAll();

  private:
    /** A stat and its group path (dotted, trailing `.`). */
    using StatFn =
        std::function<void(const std::string &prefix, const Stat &stat)>;

    /** Visit every stat in this tree, depth first, in dump order;
     *  @p prefix is the path of this group's parent. */
    void forEach(const StatFn &fn, const std::string &prefix = "") const;

    std::string _name;
    std::vector<Stat *> _stats;
    std::vector<Group *> _children;
};

} // namespace stats
} // namespace shrimp

#endif // SHRIMP_SIM_STATS_HH
