/**
 * @file
 * DeliberateDma: the network interface's single DMA engine for
 * user-level block transfers (Section 4.3).
 *
 * The engine serves one request at a time. A user process claims it
 * with a locked CMPXCHG to a command page: the read cycle returns 0
 * when the engine is free (causing the CMPXCHG to generate the write
 * cycle, which starts the transfer) or an encoded busy status
 * otherwise. The engine reads source data from main memory over the
 * Xpress bus; the outgoing datapath captures it exactly as it captures
 * automatic-update writes, and packetizes it for the network.
 */

#ifndef SHRIMP_NIC_DELIBERATE_DMA_HH
#define SHRIMP_NIC_DELIBERATE_DMA_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/main_memory.hh"
#include "mem/xpress_bus.hh"
#include "nic/nipt.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

/** Encoding of the command-page read status (see statusRead()). */
namespace dma_status
{
/** Bit 0: the read address matches the engine's current base. */
constexpr std::uint64_t ADDR_MATCH = 1;
/** Words remaining are reported in bits [31:1]. */
constexpr unsigned REMAINING_SHIFT = 1;

constexpr std::uint64_t FREE = 0;

/**
 * The last transfer from this page was aborted mid-flight (its
 * mapping was torn down -- peer died -- or the node crashed).
 * Distinct from FREE, every encodeBusy() value (those fit in 33
 * bits) and the NI's statusMapError (~0).
 */
constexpr std::uint64_t ABORTED = ~std::uint64_t{0} - 1;

constexpr std::uint64_t
encodeBusy(std::uint32_t words_remaining, bool match)
{
    return (static_cast<std::uint64_t>(words_remaining)
            << REMAINING_SHIFT) |
           (match ? ADDR_MATCH : 0);
}
} // namespace dma_status

/** The single deliberate-update DMA engine. */
class DeliberateDma : public SimObject
{
  public:
    /** Transfer word size (the CMPXCHG count is in 4-byte words). */
    static constexpr Addr wordBytes = 4;

    /** Max bytes per network packet the engine emits. */
    static constexpr Addr maxChunkBytes = 512;
    /** Engine startup cost per transfer (command decode). */
    static constexpr Tick startLatency = 200 * ONE_NS;

    /** Services the engine needs from the enclosing NI. */
    struct Hooks
    {
        /** NIPT outgoing lookup for a source physical address. */
        std::function<OutLookup(Addr)> lookupOut;
        /** Does the outgoing FIFO have room for a chunk packet? */
        std::function<bool(Addr wire_bytes)> outFifoHasSpace;
        /** Emit one chunk as a packet into the outgoing datapath. */
        std::function<void(NodeId dst, Addr dst_addr,
                           std::vector<std::uint8_t> &&payload)>
            emitChunk;
        /** Ask to be kick()ed when FIFO space frees. */
        std::function<void()> waitForFifoSpace;
    };

    DeliberateDma(EventQueue &eq, std::string name, XpressBus &bus,
                  MainMemory &mem, Hooks hooks);

    bool busy() const { return _busy; }
    Addr currentBase() const { return _base; }

    /**
     * Command-page read cycle for source address @p src_paddr:
     * 0 when free, else busy status per dma_status.
     */
    std::uint64_t statusRead(Addr src_paddr) const;

    /**
     * Command-page write cycle: start a transfer of @p nwords 4-byte
     * words from @p src_paddr. @p done runs once, when the last chunk
     * has been handed to the outgoing datapath and the engine is free
     * again; the kernel's NX and DSM services use it as their "DMA
     * send interrupt", and user command-page starts leave it empty.
     * An aborted transfer never runs it.
     *
     * @return false if the engine was busy (write ignored, as the
     *         hardware would; @p done never runs).
     */
    bool start(Addr src_paddr, std::uint32_t nwords,
               std::function<void()> done = {});

    /** The outgoing FIFO freed space; resume a stalled transfer. */
    void kick();

    /**
     * Abort the in-flight transfer (mapping torn down or node crash):
     * the engine frees immediately, its completion is dropped, and
     * status reads from the source page report dma_status::ABORTED
     * until the engine is claimed again. No-op when idle.
     */
    void abort(const char *reason);

    stats::Group &statGroup() { return _stats; }

  private:
    void transferChunk();

    XpressBus &_bus;
    MainMemory &_mem;
    Hooks _hooks;

    bool _busy = false;
    Addr _base = 0;             //!< base address of current transfer
    Addr _cursor = 0;           //!< next byte to read
    std::uint32_t _wordsRemaining = 0;
    std::function<void()> _done;    //!< current transfer's completion
    bool _aborted = false;      //!< ABORTED status latch
    Addr _abortedBase = 0;
    /** Bumped on abort: orphans the in-flight chunk completion. */
    std::uint64_t _gen = 0;

    EventFunctionWrapper _chunkEvent;

    stats::Group _stats;
    stats::Counter _transfers{_stats, "transfers", "transfers started"};
    stats::Counter _bytes{_stats, "bytes", "payload bytes transferred"};
    stats::Counter _rejectedStarts{_stats, "rejectedStarts",
                                   "start attempts while busy"};
    stats::Counter _fifoStalls{_stats, "fifoStalls",
                               "chunks stalled on outgoing FIFO space"};
    stats::Counter _aborts{_stats, "aborts",
                           "transfers aborted (mapping lost or crash)"};
};

} // namespace shrimp

#endif // SHRIMP_NIC_DELIBERATE_DMA_HH
