/**
 * @file
 * The node's second-level cache and the CPU's posted write buffer.
 *
 * The cache is a timing model only: tags, valid and dirty bits, with
 * all functional data living in MainMemory. This mirrors the property
 * the paper depends on -- the Xpress PC's snooping caches are always
 * consistent with main memory -- while keeping DMA/CPU interleavings
 * trivially correct.
 */

#ifndef SHRIMP_MEM_CACHE_HH
#define SHRIMP_MEM_CACHE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/bus_interfaces.hh"
#include "mem/cache_policy.hh"
#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

/**
 * The CPU's posted write buffer. Stores retire to the Xpress bus in
 * FIFO order; the CPU only stalls when the buffer is full. This is the
 * mechanism behind the paper's claim that a single-write automatic
 * update costs the CPU "only the local write-through cache latency".
 */
class WriteBuffer
{
  public:
    explicit WriteBuffer(unsigned capacity) : _capacity(capacity) {}

    /**
     * Post a write. Performs the functional write and schedules the bus
     * transaction (preserving store order on the bus).
     *
     * @return the tick at which the CPU may proceed (now, unless the
     *         buffer was full).
     */
    Tick post(XpressBus &bus, Addr paddr, const void *buf, Addr len,
              Tick now);

    /** Tick by which every currently posted write has reached the bus. */
    Tick drainedAt(Tick now);

    unsigned capacity() const { return _capacity; }

  private:
    void retire(Tick now);

    unsigned _capacity;
    std::deque<Tick> _pending;  //!< bus-grant end per outstanding write
    Tick _lastGrantEnd = 0;     //!< FIFO ordering on the bus
};

/**
 * Direct-mapped L2 cache with per-access policy (supplied by the MMU
 * from the page table), write-allocate for write-back pages, and
 * no-allocate write-through. Snoops DMA writes and invalidates.
 */
class Cache : public ClockedObject, public BusSnooper
{
  public:
    static constexpr Addr sizeBytes = 256 * 1024;
    static constexpr Addr lineBytes = 32;
    static constexpr unsigned hitCycles = 1;    //!< at the cache clock
    static constexpr unsigned writeBufferEntries = 4;
    static_assert(sizeBytes % lineBytes == 0,
                  "cache size not a multiple of line size");

    Cache(EventQueue &eq, std::string name, std::uint64_t freq_hz,
          XpressBus &bus, MainMemory &mem);

    /**
     * Timing for a load. The functional value is read by the caller
     * (memory is always current).
     *
     * @return the tick at which the loaded value is available.
     */
    Tick load(Addr paddr, unsigned size, CachePolicy policy, Tick now);

    /**
     * A store: functional write plus timing. Write-through and
     * uncacheable stores go through the posted write buffer onto the
     * bus (where the network interface snoops them).
     *
     * @return the tick at which the CPU may proceed.
     */
    Tick store(Addr paddr, const void *buf, Addr len, CachePolicy policy,
               Tick now);

    /**
     * Serialize a locked (atomic) operation: drains the posted write
     * buffer, then reserves the bus for a read-modify-write of @p bytes.
     * x86 locked operations have exactly this bus behaviour.
     *
     * @return the granted bus slot (functional work is done by the
     *         caller; see Cpu's CMPXCHG handling).
     */
    XpressBus::Grant lockedAccess(Addr paddr, Addr bytes, Tick now);

    /** Tick by which all posted writes have reached the bus. */
    Tick drainedAt(Tick now) { return _writeBuffer.drainedAt(now); }

    /** True if the line containing @p paddr is present. */
    bool isCached(Addr paddr) const;

    /** True if the line containing @p paddr is present and dirty. */
    bool isDirty(Addr paddr) const;

    // BusSnooper: invalidate on DMA writes so timing state matches the
    // hardware's snoop-invalidate behaviour.
    void snoopWrite(Addr paddr, const void *buf, Addr len,
                    BusMaster master) override;

    stats::Group &statGroup() { return _stats; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
    };

    std::size_t indexOf(Addr paddr) const;
    Addr tagOf(Addr paddr) const;
    Addr lineBase(Addr paddr) const;

    /** Fill the line for @p paddr; returns data-available tick. */
    Tick fill(Addr paddr, Tick now);

    XpressBus &_bus;
    MainMemory &_mem;
    std::vector<Line> _lines;
    WriteBuffer _writeBuffer;

    stats::Group _stats;
    stats::Counter _hits{_stats, "hits", "cache hits"};
    stats::Counter _misses{_stats, "misses", "cache misses"};
    stats::Counter _writebacks{_stats, "writebacks", "dirty line writebacks"};
    stats::Counter _snoopInvalidations{_stats, "snoopInvalidations",
                                       "lines invalidated by DMA snoops"};
};

} // namespace shrimp

#endif // SHRIMP_MEM_CACHE_HH
