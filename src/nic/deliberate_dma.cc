#include "nic/deliberate_dma.hh"

#include <utility>

#include "net/packet.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace shrimp
{

DeliberateDma::DeliberateDma(EventQueue &eq, std::string name,
                             XpressBus &bus, MainMemory &mem, Hooks hooks)
    : SimObject(eq, std::move(name)),
      _bus(bus),
      _mem(mem),
      _hooks(std::move(hooks)),
      _chunkEvent([this] { transferChunk(); }, "dma chunk"),
      _stats(this->name())
{}

std::uint64_t
DeliberateDma::statusRead(Addr src_paddr) const
{
    if (_busy)
        return dma_status::encodeBusy(_wordsRemaining,
                                      src_paddr == _base);
    if (_aborted && pageOf(src_paddr) == pageOf(_abortedBase))
        return dma_status::ABORTED;
    return dma_status::FREE;
}

bool
DeliberateDma::start(Addr src_paddr, std::uint32_t nwords,
                     std::function<void()> done)
{
    if (_busy) {
        ++_rejectedStarts;
        return false;
    }
    SHRIMP_ASSERT(nwords > 0, "zero-length deliberate transfer");
    SHRIMP_ASSERT(pageOffset(src_paddr) + nwords * wordBytes <= PAGE_SIZE,
                  "deliberate transfer crosses a page boundary: addr=",
                  src_paddr, " words=", nwords);

    _busy = true;
    _aborted = false;   // the latched abort status is consumed
    _base = src_paddr;
    _cursor = src_paddr;
    _wordsRemaining = nwords;
    _done = std::move(done);
    ++_transfers;

    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "dma", "dmaClaim",
                   {trace::arg("paddr", src_paddr),
                    trace::arg("words",
                               static_cast<std::uint64_t>(nwords))});
    }

    reschedule(_chunkEvent, curTick() + startLatency);
    return true;
}

void
DeliberateDma::kick()
{
    if (_busy && !_chunkEvent.scheduled())
        reschedule(_chunkEvent, curTick());
}

void
DeliberateDma::abort(const char *reason)
{
    if (!_busy)
        return;
    ++_aborts;
    _aborted = true;
    _abortedBase = _base;
    _busy = false;
    _wordsRemaining = 0;
    _done = nullptr;
    ++_gen;
    if (_chunkEvent.scheduled())
        deschedule(_chunkEvent);
    if (auto *t = eventQueue().tracer()) {
        t->instant(curTick(), name(), "dma", "dmaAbort",
                   {trace::arg("paddr", _abortedBase),
                    trace::arg("reason", reason)});
    }
}

void
DeliberateDma::transferChunk()
{
    SHRIMP_ASSERT(_busy, "chunk event while idle");

    OutLookup lookup = _hooks.lookupOut(_cursor);
    if (!lookup.mapped || lookup.mode != UpdateMode::DELIBERATE) {
        // The mapping vanished (or errored) mid-transfer -- the peer
        // died or the kernel tore the page down. Not a simulator bug:
        // abort and report it through the command-page status.
        abort("mappingLost");
        return;
    }

    Addr bytes_left = Addr{_wordsRemaining} * wordBytes;
    Addr chunk = bytes_left;
    if (chunk > maxChunkBytes)
        chunk = maxChunkBytes;
    // A chunk must stay within one mapping half (split pages).
    if (chunk > lookup.bytesToMappingEnd)
        chunk = lookup.bytesToMappingEnd;
    SHRIMP_ASSERT(chunk % wordBytes == 0 && chunk > 0,
                  "bad chunk size ", chunk);

    Addr wire = NetPacket::headerBytes + chunk + NetPacket::crcBytes;
    if (!_hooks.outFifoHasSpace(wire)) {
        ++_fifoStalls;
        _hooks.waitForFifoSpace();
        return;     // kick() resumes us
    }

    // The engine reads source data from main memory over the Xpress
    // bus; the snooping datapath captures it (modeled by handing the
    // data straight to the packetizer at the read's completion).
    XpressBus::Grant grant = _bus.acquire(curTick(), chunk);
    Tick data_ready = grant.end + MainMemory::accessLatency;

    std::vector<std::uint8_t> payload(chunk);
    _mem.read(_cursor, payload.data(), chunk);

    NodeId dst = lookup.dstNode;
    Addr dst_addr = lookup.dstAddr;
    _bytes += chunk;

    if (auto *t = eventQueue().tracer()) {
        t->complete(curTick(), data_ready, name(), "dma",
                    "dmaChunkRead",
                    {trace::arg("paddr", _cursor),
                     trace::arg("bytes", chunk)});
    }

    // Progress state (_cursor, _wordsRemaining, _busy) only advances
    // when the chunk is actually captured by the outgoing datapath, so
    // a command-page status read never reports "free" while data is
    // still in flight. Chunks are strictly sequential: the next
    // transferChunk() is scheduled from inside this completion.
    eventQueue().scheduleFn(
        [this, dst, dst_addr, chunk, gen = _gen,
         payload = std::move(payload)]() mutable {
            if (gen != _gen)
                return;     // aborted while the read was in flight
            _hooks.emitChunk(dst, dst_addr, std::move(payload));
            _cursor += chunk;
            _wordsRemaining -=
                static_cast<std::uint32_t>(chunk / wordBytes);
            if (_wordsRemaining == 0) {
                _busy = false;
                // Taken out first: the completion may start the next
                // transfer.
                if (auto done = std::exchange(_done, nullptr))
                    done();
            } else if (!_chunkEvent.scheduled()) {
                reschedule(_chunkEvent, curTick());
            }
        },
        data_ready, EventPriority::DEFAULT, "dma chunk emit");
}

} // namespace shrimp
