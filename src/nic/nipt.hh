/**
 * @file
 * The Network Interface Page Table (NIPT) -- the key component of the
 * SHRIMP network interface (Section 4). One entry per page of local
 * physical memory describes whether and how that page is mapped:
 *
 *  - outgoing: destination node + physical page and an update mode
 *    (single-write automatic, blocked-write automatic, or deliberate);
 *  - incoming: whether remote senders may deposit data into this page,
 *    and whether arrival should raise an interrupt;
 *  - page split: a page may be divided at a configurable offset
 *    between two independent outgoing mappings (Section 3.2), which is
 *    how non-page-aligned application mappings are accommodated.
 */

#ifndef SHRIMP_NIC_NIPT_HH
#define SHRIMP_NIC_NIPT_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp
{

/** How writes to a mapped-out page are propagated. */
enum class UpdateMode : std::uint8_t
{
    NONE,           //!< not mapped out
    AUTO_SINGLE,    //!< every snooped write becomes a packet immediately
    AUTO_BLOCK,     //!< consecutive snooped writes merge into one packet
    DELIBERATE,     //!< data moves only on an explicit user-level send
};

const char *updateModeName(UpdateMode mode);

/** One half of a (possibly split) outgoing mapping. */
struct OutMapping
{
    UpdateMode mode = UpdateMode::NONE;
    NodeId dstNode = INVALID_NODE;
    PageNum dstPage = INVALID_PAGE;
    /**
     * Byte delta applied to the in-page offset at the destination, so
     * a source range can land at a different alignment in the
     * destination page (non-page-aligned mappings).
     */
    std::int32_t dstOffsetDelta = 0;
    /**
     * Set by the NI's reliability layer when delivery to dstNode
     * exhausted its retry budget: the mapping is errored, outgoing
     * lookups stop matching, and command-page status reads report the
     * failure (graceful degradation instead of silent loss).
     */
    bool error = false;

    bool valid() const { return mode != UpdateMode::NONE; }
};

/** One NIPT entry (per local physical page). */
struct NiptEntry
{
    OutMapping outLow;      //!< covers [0, splitOffset) or whole page
    OutMapping outHigh;     //!< covers [splitOffset, PAGE_SIZE)
    Addr splitOffset = 0;   //!< 0 means outLow covers the whole page

    bool mappedIn = false;          //!< remote senders may write here
    bool interruptOnArrival = false;

    bool
    anyOut() const
    {
        return outLow.valid() || outHigh.valid();
    }
};

/** Result of an outgoing lookup for one snooped physical address. */
struct OutLookup
{
    bool mapped = false;
    UpdateMode mode = UpdateMode::NONE;
    NodeId dstNode = INVALID_NODE;
    Addr dstAddr = 0;
    /** Bytes from the looked-up address to the end of this mapping's
     *  coverage (used to keep DMA chunks within one mapping half). */
    Addr bytesToMappingEnd = 0;
};

/** The table itself. */
class Nipt
{
  public:
    explicit Nipt(PageNum num_pages) : _entries(num_pages) {}

    PageNum numPages() const { return _entries.size(); }

    NiptEntry &
    entry(PageNum page)
    {
        SHRIMP_ASSERT(page < _entries.size(), "NIPT index ", page,
                      " out of range");
        return _entries[page];
    }

    const NiptEntry &
    entry(PageNum page) const
    {
        SHRIMP_ASSERT(page < _entries.size(), "NIPT index ", page,
                      " out of range");
        return _entries[page];
    }

    /** Outgoing lookup for a snooped write / DMA read address. */
    OutLookup
    lookupOut(Addr paddr) const
    {
        PageNum page = pageOf(paddr);
        if (page >= _entries.size())
            return {};
        const NiptEntry &e = _entries[page];
        Addr off = pageOffset(paddr);

        const OutMapping *m = nullptr;
        Addr end = PAGE_SIZE;
        if (e.splitOffset != 0 && off >= e.splitOffset) {
            m = &e.outHigh;
        } else {
            m = &e.outLow;
            if (e.splitOffset != 0)
                end = e.splitOffset;
        }
        if (!m->valid() || m->error)
            return {};

        OutLookup result;
        result.mapped = true;
        result.mode = m->mode;
        result.dstNode = m->dstNode;
        result.dstAddr = pageBase(m->dstPage) + off +
                         static_cast<std::int64_t>(m->dstOffsetDelta);
        result.bytesToMappingEnd = end - off;
        return result;
    }

    /** Is the page accepting incoming data? */
    bool
    mappedIn(PageNum page) const
    {
        return page < _entries.size() && _entries[page].mappedIn;
    }

  private:
    std::vector<NiptEntry> _entries;
};

} // namespace shrimp

#endif // SHRIMP_NIC_NIPT_HH
