// A stat constructed with an empty description: `stats dump` and the
// JSON export are the bench/chaos regression currency, and an
// undescribed counter is unreviewable in either.
namespace stats
{
struct Group
{
    explicit Group(const char *name);
};
struct Counter
{
    Counter(Group &group, const char *name, const char *desc);
};
} // namespace stats

struct RouterStats
{
    stats::Group _stats{"router"};
    stats::Counter _drops{_stats, "drops", ""};
};
