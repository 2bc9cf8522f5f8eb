// A hand-written accessor gives a Counter a second name
// (packetsSent for pktsSent) and a second read path beside the stats
// tree. Counters are read by stat path through stats::Snapshot, where
// a mistyped path fails loudly.
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
} // namespace stats

class Nic
{
  public:
    unsigned long long packetsSent() const { return _pktsSent.value(); }

  private:
    stats::Group _stats{"nic"};
    stats::Counter _pktsSent{_stats, "pktsSent", "packets injected"};
};
