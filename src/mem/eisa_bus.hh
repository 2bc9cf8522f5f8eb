/**
 * @file
 * EisaBus: the node's EISA expansion bus. On the prototype SHRIMP
 * network interface, incoming packets reach main memory through an
 * EISA DMA burst; its 33 MB/s burst bandwidth is the bottleneck that
 * limits the system's receive bandwidth (Section 5.1).
 */

#ifndef SHRIMP_MEM_EISA_BUS_HH
#define SHRIMP_MEM_EISA_BUS_HH

#include <cstdint>

#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

/**
 * Analytic occupancy model of the EISA bus in burst DMA mode: each
 * burst pays an arbitration/setup cost, then streams at the burst
 * bandwidth. Consecutive bursts serialize.
 */
class EisaBus : public SimObject
{
  public:
    struct Grant
    {
        Tick start;     //!< burst begins (setup included before data)
        Tick end;       //!< last byte transferred
    };

    static constexpr std::uint64_t burstBytesPerSec = 33'000'000;
    /** Arbitration + DMA setup, paid once per burst. */
    static constexpr Tick setupTime = 900 * ONE_NS;

    EisaBus(EventQueue &eq, std::string name)
        : SimObject(eq, std::move(name)), _stats(this->name())
    {}

    /**
     * Reserve the bus for a burst of @p bytes starting no earlier than
     * @p earliest.
     */
    Grant
    acquire(Tick earliest, Addr bytes)
    {
        Tick start = earliest > _busyUntil ? earliest : _busyUntil;
        Tick data_time =
            (bytes * ONE_SEC + burstBytesPerSec - 1) / burstBytesPerSec;
        Tick end = start + setupTime + data_time;
        _busyUntil = end;
        ++_bursts;
        _bytes += bytes;
        return Grant{start, end};
    }

    stats::Group &statGroup() { return _stats; }

  private:
    Tick _busyUntil = 0;

    stats::Group _stats;
    stats::Counter _bursts{_stats, "bursts", "DMA bursts carried"};
    stats::Counter _bytes{_stats, "bytes", "bytes carried"};
};

} // namespace shrimp

#endif // SHRIMP_MEM_EISA_BUS_HH
