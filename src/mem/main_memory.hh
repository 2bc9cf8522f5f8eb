/**
 * @file
 * MainMemory: a node's DRAM. Functional backing store plus a fixed
 * access latency used by the timing models that reference it.
 */

#ifndef SHRIMP_MEM_MAIN_MEMORY_HH
#define SHRIMP_MEM_MAIN_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/bus_interfaces.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace shrimp
{

/**
 * A node's main memory. All functional data lives here; caches are
 * timing-only (tags and dirty bits, no data arrays), so DMA and CPU
 * always observe current values. This matches the Xpress PC property
 * the paper relies on: snooping caches stay consistent with all main
 * memory updates.
 *
 * The store is sparse, one slot per page frame. A null slot is an
 * all-zero page; the first write to a page allocates it, and reads
 * never allocate. Host memory is therefore paid only for the pages a
 * simulation writes (mapped receive pages, touched process pages),
 * not for the whole simulated DRAM.
 */
class MainMemory : public SimObject, public BusTarget
{
  public:
    /** DRAM access latency (row access, simplified). */
    static constexpr Tick accessLatency = 60 * ONE_NS;

    MainMemory(EventQueue &eq, std::string name, Addr bytes)
        : SimObject(eq, std::move(name)), _pages(bytes / PAGE_SIZE)
    {
        SHRIMP_ASSERT(bytes % PAGE_SIZE == 0,
                      "memory size must be page aligned");
    }

    /** Memory capacity in bytes. */
    Addr size() const { return _pages.size() * PAGE_SIZE; }

    /** Number of physical page frames. */
    PageNum numPages() const { return _pages.size(); }

    /** Pages written at least once, i.e. backed by host memory. */
    std::size_t
    residentPages() const
    {
        return static_cast<std::size_t>(
            std::count_if(_pages.begin(), _pages.end(),
                          [](const auto &p) { return p != nullptr; }));
    }

    /** Functional read of @p len bytes at @p paddr. */
    void
    read(Addr paddr, void *buf, Addr len) const
    {
        checkRange(paddr, len);
        auto *out = static_cast<std::uint8_t *>(buf);
        while (len > 0) {
            Addr off = paddr & PAGE_OFFSET_MASK;
            Addr n = std::min(len, PAGE_SIZE - off);
            const Page *page = _pages[pageOf(paddr)].get();
            if (page)
                std::memcpy(out, page->data() + off, n);
            else
                std::memset(out, 0, n);
            out += n;
            paddr += n;
            len -= n;
        }
    }

    /** Functional write of @p len bytes at @p paddr. */
    void
    write(Addr paddr, const void *buf, Addr len)
    {
        checkRange(paddr, len);
        const auto *in = static_cast<const std::uint8_t *>(buf);
        while (len > 0) {
            Addr off = paddr & PAGE_OFFSET_MASK;
            Addr n = std::min(len, PAGE_SIZE - off);
            std::unique_ptr<Page> &page = _pages[pageOf(paddr)];
            if (!page)
                page = std::make_unique<Page>();    // zero-filled
            std::memcpy(page->data() + off, in, n);
            in += n;
            paddr += n;
            len -= n;
        }
    }

    /** Read a little-endian integer of @p size bytes (1/2/4/8). */
    std::uint64_t
    readInt(Addr paddr, unsigned size) const
    {
        SHRIMP_ASSERT(size <= 8, "bad integer size ", size);
        std::uint64_t v = 0;
        read(paddr, &v, size);
        return v;
    }

    /** Write a little-endian integer of @p size bytes (1/2/4/8). */
    void
    writeInt(Addr paddr, std::uint64_t v, unsigned size)
    {
        SHRIMP_ASSERT(size <= 8, "bad integer size ", size);
        write(paddr, &v, size);
    }

    // BusTarget interface
    std::uint64_t
    busRead(Addr paddr, unsigned size) override
    {
        return readInt(paddr, size);
    }

    void
    busWrite(Addr paddr, const void *buf, Addr len) override
    {
        write(paddr, buf, len);
    }

  private:
    using Page = std::array<std::uint8_t, PAGE_SIZE>;

    void
    checkRange(Addr paddr, Addr len) const
    {
        SHRIMP_ASSERT(paddr + len <= size() && paddr + len >= paddr,
                      "memory access out of range: addr=", paddr,
                      " len=", len, " size=", size());
    }

    /** One slot per page frame; null reads as zeros. */
    std::vector<std::unique_ptr<Page>> _pages;
};

} // namespace shrimp

#endif // SHRIMP_MEM_MAIN_MEMORY_HH
