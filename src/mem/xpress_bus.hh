/**
 * @file
 * XpressBus: the node's memory bus, connecting CPU, DRAM, the EISA
 * bridge, and the SHRIMP network interface (which both snoops it and
 * responds to command-space addresses on it).
 *
 * Occupancy is modeled analytically: a master asks for a slot no
 * earlier than some tick, and the bus serializes transactions by
 * advancing a busy-until pointer. Cross-component effects (the NIC
 * seeing a snooped write) are delivered via scheduled events at the
 * granted slot time, so observable ordering is exact even though
 * arbitration is analytic.
 */

#ifndef SHRIMP_MEM_XPRESS_BUS_HH
#define SHRIMP_MEM_XPRESS_BUS_HH

#include <cstdint>
#include <vector>

#include "mem/bus_interfaces.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

/** The Xpress memory bus (64-bit, 33.3 MHz). */
class XpressBus : public ClockedObject
{
  public:
    /** A granted bus slot: the transaction occupies [start, end). */
    struct Grant
    {
        Tick start;
        Tick end;
    };

    static constexpr std::uint64_t freqHz = 33'333'333;
    static constexpr unsigned widthBytes = 8;

    XpressBus(EventQueue &eq, std::string name);

    /** Route [base, base+len) to @p target. Ranges must not overlap. */
    void addTarget(Addr base, Addr len, BusTarget *target);

    /** Register a snooper notified of every write transaction. */
    void addSnooper(BusSnooper *snooper);

    /** The target that decodes @p paddr, or null. */
    BusTarget *targetFor(Addr paddr) const;

    /** Bus cycles needed for a transaction moving @p bytes. */
    std::uint64_t
    transactionCycles(Addr bytes) const
    {
        // One address phase plus one data phase per bus-width chunk.
        return 1 + (bytes + widthBytes - 1) / widthBytes;
    }

    /**
     * Reserve the bus for a transaction of @p bytes starting no earlier
     * than @p earliest. Serializes against all other traffic.
     */
    Grant acquire(Tick earliest, Addr bytes);

    /**
     * Posted write: functionally performed immediately (so the issuing
     * CPU sees its own stores), bus slot reserved, and snoopers notified
     * at the slot's start tick with a copy of the data.
     *
     * @return the granted slot.
     */
    Grant postWrite(Addr paddr, const void *buf, Addr len,
                    BusMaster master, Tick earliest);

    /**
     * Functional read through the address decoder (no timing). The
     * caller accounts for timing via acquire() plus target latency.
     */
    std::uint64_t functionalRead(Addr paddr, unsigned size) const;

    /**
     * Functional write with immediate snooper notification but no
     * occupancy charge: the write half of a locked CMPXCHG, whose bus
     * time was already reserved via Cache::lockedAccess(), and the
     * NI's receive DMA, whose timing the NI models itself.
     */
    void functionalWrite(Addr paddr, const void *buf, Addr len,
                         BusMaster master);

    /** Per-master transaction and byte counters, for bandwidth checks. */
    stats::Group &statGroup() { return _stats; }

  private:
    struct Range
    {
        Addr base;
        Addr limit;     //!< exclusive
        BusTarget *target;
    };

    void notifySnoopers(Addr paddr, const void *buf, Addr len,
                        BusMaster master);

    Tick _busyUntil = 0;
    std::vector<Range> _ranges;
    std::vector<BusSnooper *> _snoopers;

    stats::Group _stats;
    stats::Counter _transactions{_stats, "transactions", "bus transactions"};
    stats::Counter _bytes{_stats, "bytes", "bytes carried on the bus"};
    stats::Counter _contentionTicks{_stats, "contentionTicks",
                                    "ticks transactions waited for the bus"};
};

} // namespace shrimp

#endif // SHRIMP_MEM_XPRESS_BUS_HH
