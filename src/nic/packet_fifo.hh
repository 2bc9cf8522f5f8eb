/**
 * @file
 * PacketFifo: the network interface's Outgoing / Incoming FIFOs, with
 * the programmable thresholds the paper's flow control is built on
 * (Section 4): an incoming FIFO above its stop threshold makes the NIC
 * refuse packets from the network; an outgoing FIFO above its
 * threshold interrupts the CPU until it drains.
 */

#ifndef SHRIMP_NIC_PACKET_FIFO_HH
#define SHRIMP_NIC_PACKET_FIFO_HH

#include <deque>
#include <functional>

#include "net/packet.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

/**
 * A byte-accounted FIFO of packets with hysteresis thresholds.
 *
 * Threshold semantics (pinned by fifo_test's threshold-crossing
 * tests): a fill of exactly highThresholdBytes still counts as
 * "below" -- belowHighThreshold() is true and no callback fires; only
 * a push that moves the fill from <= high to strictly > high fires
 * onAboveThreshold. Symmetrically, draining counts from strictly
 * above lowThresholdBytes to exactly at-or-below it fires onDrained:
 * a pop landing exactly on the low threshold does fire. Both
 * callbacks are edge-triggered -- staying above (or below) never
 * refires them.
 */
class PacketFifo
{
  public:
    struct Params
    {
        Addr capacityBytes = 64 * 1024;
        /** Crossing strictly above this (from <=) fires
         *  onAboveThreshold. */
        Addr highThresholdBytes = 56 * 1024;
        /** Crossing to-or-below this (from above) fires onDrained. */
        Addr lowThresholdBytes = 32 * 1024;
    };

    explicit PacketFifo(std::string name, const Params &params)
        : _params(params), _stats(std::move(name))
    {
        SHRIMP_ASSERT(params.lowThresholdBytes <=
                          params.highThresholdBytes &&
                      params.highThresholdBytes <= params.capacityBytes,
                      "inconsistent FIFO thresholds");
    }

    /** Fired when fill first exceeds the high threshold. */
    std::function<void()> onAboveThreshold;
    /** Fired when fill falls back to/below the low threshold. */
    std::function<void()> onDrained;

    struct Item
    {
        NetPacket pkt;
        Tick ready;     //!< earliest tick the consumer may take it
    };

    bool empty() const { return _items.empty(); }
    std::size_t packets() const { return _items.size(); }
    Addr fillBytes() const { return _fillBytes; }

    /** Would @p bytes more fit without exceeding capacity? */
    bool
    wouldFit(Addr bytes) const
    {
        return _fillBytes + bytes <= _params.capacityBytes;
    }

    /** Is the fill at or below the high threshold (accepting)? */
    bool
    belowHighThreshold() const
    {
        return _fillBytes <= _params.highThresholdBytes;
    }

    void
    push(NetPacket &&pkt, Tick ready)
    {
        Addr bytes = pkt.wireBytes();
        SHRIMP_ASSERT(wouldFit(bytes),
                      "FIFO overflow: fill=", _fillBytes, " +", bytes,
                      " > ", _params.capacityBytes);
        bool was_below = belowHighThreshold();
        _fillBytes += bytes;
        _items.push_back(Item{std::move(pkt), ready});
        ++_pushes;
        _maxFill.observe(static_cast<double>(_fillBytes));
        _depth.sample(_items.size());
        if (was_below && !belowHighThreshold() && onAboveThreshold)
            onAboveThreshold();
    }

    const Item &
    front() const
    {
        SHRIMP_ASSERT(!_items.empty(), "front of empty FIFO");
        return _items.front();
    }

    /** Item @p i positions behind the head (for coalescing scans). */
    const Item &
    at(std::size_t i) const
    {
        SHRIMP_ASSERT(i < _items.size(), "FIFO index out of range");
        return _items[i];
    }

    NetPacket
    pop()
    {
        SHRIMP_ASSERT(!_items.empty(), "pop of empty FIFO");
        bool was_above = _fillBytes > _params.lowThresholdBytes;
        NetPacket pkt = std::move(_items.front().pkt);
        _items.pop_front();
        _fillBytes -= pkt.wireBytes();
        if (was_above && _fillBytes <= _params.lowThresholdBytes &&
            onDrained) {
            onDrained();
        }
        return pkt;
    }

    /**
     * Discard every queued packet (node crash / power fail). No
     * threshold callback fires -- this is not a drain but a reset, and
     * the owner is expected to rebuild its own flow-control state
     * (accepting/stalled flags) alongside.
     */
    void
    clear()
    {
        _items.clear();
        _fillBytes = 0;
    }

    /** Peak fill since construction or the last stats reset. */
    Addr
    maxFillBytes() const
    {
        return static_cast<Addr>(_maxFill.value());
    }

    stats::Group &statGroup() { return _stats; }

  private:
    Params _params;
    std::deque<Item> _items;
    Addr _fillBytes = 0;

    stats::Group _stats;
    stats::Counter _pushes{_stats, "pushes", "packets pushed"};
    /** Self-tracking peak: a resetAll() genuinely restarts it, so
     *  post-reset peaks below an old high-water mark are not lost. */
    stats::Peak _maxFill{_stats, "maxFillBytes", "peak fill level"};
    stats::Histogram _depth{_stats, "depthPackets",
                            "queue depth (packets) observed at push"};
};

} // namespace shrimp

#endif // SHRIMP_NIC_PACKET_FIFO_HH
