// A stat constructed without a description: the group and the name
// alone leave the counter unreviewable in every stats dump.
namespace stats
{
struct Group
{
    explicit Group(const char *name);
};
struct Counter
{
    Counter(Group &group, const char *name);
};
} // namespace stats

struct RouterStats
{
    stats::Group _stats{"router"};
    stats::Counter _spins{_stats, "spins"};
};
