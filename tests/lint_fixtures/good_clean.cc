// Representative clean simulator code: seeded Rng for randomness,
// RAII ownership, wide tick arithmetic, described stats read through
// the stats tree (only a Peak has an accessor), weak_ptr back-edges,
// logging via the project macros.
#include <memory>

using Tick = unsigned long long;

namespace stats
{
struct Group
{
    explicit Group(const char *name);
};
struct Counter
{
    Counter(Group &group, const char *name, const char *desc);
    unsigned long long value() const;
};
struct Peak
{
    Peak(Group &group, const char *name, const char *desc);
    double value() const;
};
} // namespace stats

struct Rng
{
    explicit Rng(unsigned long long seed);
    unsigned long long below(unsigned long long bound);
};

struct MeshColumn;

struct MeshCell
{
    // Back-edge held weakly: the column owns its cells, not vice versa.
    std::weak_ptr<MeshColumn> parentColumn;
};

struct RouterStats
{
    stats::Group _stats{"router"};
    stats::Counter _drops{_stats, "drops", "packets dropped at this router"};
    stats::Counter _spins{_stats, "spins",
                          "allocation passes that made no progress"};
    stats::Peak _peakQueue{_stats, "peakQueue", "deepest input queue"};

    // A snapshot holds counters only, so a Peak keeps its accessor.
    double peakQueue() const { return _peakQueue.value(); }
};

struct Link
{
    Tick nextFree = 0;

    Tick
    reserve(Tick now, Tick serialization)
    {
        Tick start = now > nextFree ? now : nextFree;
        nextFree = start + serialization;
        return start;
    }
};

std::unique_ptr<Link>
makeLink()
{
    return std::make_unique<Link>();
}

// "tick" inside a longer word is no Tick: this stays 32-bit clean.
unsigned
nextTicket(unsigned ticket_base, unsigned sticky_offset)
{
    unsigned ticket = ticket_base + sticky_offset;
    return ticket;
}

unsigned long long
pickVictim(Rng &rng, unsigned long long n)
{
    return rng.below(n);
}
