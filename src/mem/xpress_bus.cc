#include "mem/xpress_bus.hh"

#include <cstring>

#include "sim/logging.hh"

namespace shrimp
{

XpressBus::XpressBus(EventQueue &eq, std::string name)
    : ClockedObject(eq, std::move(name), freqHz), _stats(this->name())
{}

void
XpressBus::addTarget(Addr base, Addr len, BusTarget *target)
{
    SHRIMP_ASSERT(target != nullptr, "null bus target");
    Addr limit = base + len;
    for (const Range &r : _ranges) {
        SHRIMP_ASSERT(limit <= r.base || base >= r.limit,
                      "overlapping bus target ranges");
    }
    _ranges.push_back(Range{base, limit, target});
}

void
XpressBus::addSnooper(BusSnooper *snooper)
{
    SHRIMP_ASSERT(snooper != nullptr, "null bus snooper");
    _snoopers.push_back(snooper);
}

BusTarget *
XpressBus::targetFor(Addr paddr) const
{
    for (const Range &r : _ranges) {
        if (paddr >= r.base && paddr < r.limit)
            return r.target;
    }
    return nullptr;
}

XpressBus::Grant
XpressBus::acquire(Tick earliest, Addr bytes)
{
    Tick start = earliest > _busyUntil ? earliest : _busyUntil;
    // Align the start to a bus clock edge.
    Tick period = clockPeriod();
    start = ((start + period - 1) / period) * period;
    Tick duration = cyclesToTicks(transactionCycles(bytes));

    ++_transactions;
    _bytes += bytes;
    _contentionTicks += start - earliest;

    _busyUntil = start + duration;
    return Grant{start, _busyUntil};
}

void
XpressBus::notifySnoopers(Addr paddr, const void *buf, Addr len,
                          BusMaster master)
{
    for (BusSnooper *s : _snoopers)
        s->snoopWrite(paddr, buf, len, master);
}

XpressBus::Grant
XpressBus::postWrite(Addr paddr, const void *buf, Addr len,
                     BusMaster master, Tick earliest)
{
    BusTarget *target = targetFor(paddr);
    SHRIMP_ASSERT(target, "bus write decodes to no target: addr=", paddr);

    bool deferred = target->effectAtGrant();
    if (!deferred) {
        // Functional effect now: the issuing CPU must see its own
        // store in memory.
        target->busWrite(paddr, buf, len);
    }

    Grant grant = acquire(earliest, len);

    // Snoopers observe the write, with the data as driven, at the tick
    // the transaction actually occupies the bus; device targets take
    // their functional effect at the same tick so command writes stay
    // ordered behind earlier snooped data writes.
    std::vector<std::uint8_t> copy(static_cast<std::size_t>(len));
    std::memcpy(copy.data(), buf, copy.size());
    eventQueue().scheduleFn(
        [this, target, deferred, paddr, data = std::move(copy),
         master]() {
            if (deferred)
                target->busWrite(paddr, data.data(), data.size());
            notifySnoopers(paddr, data.data(), data.size(), master);
        },
        grant.start, EventPriority::CLOCK, "bus snoop notify");

    return grant;
}

void
XpressBus::functionalWrite(Addr paddr, const void *buf, Addr len,
                           BusMaster master)
{
    BusTarget *target = targetFor(paddr);
    SHRIMP_ASSERT(target, "bus write decodes to no target: addr=", paddr);
    target->busWrite(paddr, buf, len);
    notifySnoopers(paddr, buf, len, master);
}

std::uint64_t
XpressBus::functionalRead(Addr paddr, unsigned size) const
{
    BusTarget *target = targetFor(paddr);
    SHRIMP_ASSERT(target, "bus read decodes to no target: addr=", paddr);
    return target->busRead(paddr, size);
}

} // namespace shrimp
