#include "mem/cache.hh"

namespace shrimp
{

const char *
cachePolicyName(CachePolicy policy)
{
    switch (policy) {
      case CachePolicy::WRITE_BACK: return "write-back";
      case CachePolicy::WRITE_THROUGH: return "write-through";
      case CachePolicy::UNCACHEABLE: return "uncacheable";
    }
    return "unknown";
}

Tick
WriteBuffer::post(XpressBus &bus, Addr paddr, const void *buf, Addr len,
                  Tick now)
{
    retire(now);

    Tick proceed = now;
    if (_pending.size() >= _capacity) {
        // Buffer full: the CPU stalls until the oldest write reaches
        // the bus and frees a slot.
        proceed = _pending.front();
        retire(proceed);
    }

    Tick earliest = proceed > _lastGrantEnd ? proceed : _lastGrantEnd;
    XpressBus::Grant grant =
        bus.postWrite(paddr, buf, len, BusMaster::CPU, earliest);
    _pending.push_back(grant.end);
    _lastGrantEnd = grant.end;
    return proceed;
}

Tick
WriteBuffer::drainedAt(Tick now)
{
    retire(now);
    return _pending.empty() ? now : _pending.back();
}

void
WriteBuffer::retire(Tick now)
{
    while (!_pending.empty() && _pending.front() <= now)
        _pending.pop_front();
}

Cache::Cache(EventQueue &eq, std::string name, std::uint64_t freq_hz,
             XpressBus &bus, MainMemory &mem)
    : ClockedObject(eq, std::move(name), freq_hz),
      _bus(bus),
      _mem(mem),
      _lines(sizeBytes / lineBytes),
      _writeBuffer(writeBufferEntries),
      _stats(this->name())
{
    bus.addSnooper(this);
}

std::size_t
Cache::indexOf(Addr paddr) const
{
    return (paddr / lineBytes) % _lines.size();
}

Addr
Cache::tagOf(Addr paddr) const
{
    return paddr / sizeBytes;
}

Addr
Cache::lineBase(Addr paddr) const
{
    return paddr - paddr % lineBytes;
}

Tick
Cache::fill(Addr paddr, Tick now)
{
    Line &line = _lines[indexOf(paddr)];

    if (line.valid && line.dirty) {
        // Victim writeback. Memory already holds current data (the
        // cache is timing-only), so this charges occupancy without a
        // functional write -- and without snooper noise, which is
        // faithful: only mapped pages matter to the NIC and mapped-out
        // pages are forced write-through, never dirty.
        _bus.acquire(now, lineBytes);
        ++_writebacks;
    }

    XpressBus::Grant grant = _bus.acquire(now, lineBytes);
    Tick avail = grant.end + MainMemory::accessLatency;

    line.valid = true;
    line.dirty = false;
    line.tag = tagOf(paddr);
    return avail;
}

Tick
Cache::load(Addr paddr, unsigned size, CachePolicy policy, Tick now)
{
    if (policy == CachePolicy::UNCACHEABLE) {
        XpressBus::Grant grant = _bus.acquire(now, size);
        // DRAM adds its access latency; device space (the NIC command
        // pages) answers within the bus transaction.
        bool is_dram = paddr < _mem.size();
        return grant.end + (is_dram ? MainMemory::accessLatency : 0);
    }

    const Line &line = _lines[indexOf(paddr)];
    if (line.valid && line.tag == tagOf(paddr)) {
        ++_hits;
        return now + cyclesToTicks(hitCycles);
    }

    ++_misses;
    return fill(paddr, now) + cyclesToTicks(hitCycles);
}

Tick
Cache::store(Addr paddr, const void *buf, Addr len, CachePolicy policy,
             Tick now)
{
    if (policy == CachePolicy::WRITE_BACK) {
        Line &line = _lines[indexOf(paddr)];
        Tick ready = now;
        if (!(line.valid && line.tag == tagOf(paddr))) {
            ++_misses;
            ready = fill(paddr, now);   // write-allocate
        } else {
            ++_hits;
        }
        line.dirty = true;
        _mem.write(paddr, buf, len);    // functional data is in memory
        return ready + cyclesToTicks(hitCycles);
    }

    // Write-through and uncacheable stores go to the bus via the posted
    // write buffer; the NIC snoops them there. Write-through updates
    // the line on a hit but does not allocate on a miss.
    if (policy == CachePolicy::WRITE_THROUGH) {
        const Line &line = _lines[indexOf(paddr)];
        if (line.valid && line.tag == tagOf(paddr))
            ++_hits;
        else
            ++_misses;
    }

    Tick proceed = _writeBuffer.post(_bus, paddr, buf, len, now);
    return proceed + cyclesToTicks(hitCycles);
}

XpressBus::Grant
Cache::lockedAccess(Addr paddr, Addr bytes, Tick now)
{
    // x86 locked operations drain the store buffer, then hold the bus
    // for the read and the (possible) write together.
    Tick drained = _writeBuffer.drainedAt(now);
    (void)paddr;
    return _bus.acquire(drained, 2 * bytes);
}

bool
Cache::isCached(Addr paddr) const
{
    const Line &line = _lines[indexOf(paddr)];
    return line.valid && line.tag == tagOf(paddr);
}

bool
Cache::isDirty(Addr paddr) const
{
    const Line &line = _lines[indexOf(paddr)];
    return line.valid && line.tag == tagOf(paddr) && line.dirty;
}

void
Cache::snoopWrite(Addr paddr, const void *buf, Addr len, BusMaster master)
{
    (void)buf;
    if (master == BusMaster::CPU)
        return;     // our own traffic

    for (Addr a = lineBase(paddr); a < paddr + len; a += lineBytes) {
        Line &line = _lines[indexOf(a)];
        if (line.valid && line.tag == tagOf(a)) {
            line.valid = false;
            line.dirty = false;
            ++_snoopInvalidations;
        }
    }
}

} // namespace shrimp
