/**
 * @file
 * PramNi: the Pipelined RAM network interface of the paper's
 * experimental environment (Section 5.2, after Lipton & Sandberg's
 * PRAM). Each interface carries 32 KB of dual-ported SRAM; writes to
 * the local SRAM propagate to the peer interface's SRAM, exactly like
 * a complementary SHRIMP single-write automatic-update mapping -- but
 * only for this small on-board memory, with no NIPT, no deliberate
 * update, and no general mapping.
 *
 * The paper measured the Table 1 software overheads on two i486 PCs
 * with PRAM interfaces and argues the environment is "a restricted
 * version of SHRIMP -- application code that works on the
 * implementation environment will run without change on a real SHRIMP
 * system". tests/pram_test.cpp demonstrates precisely that: the same
 * emitted primitives produce the same instruction counts on both.
 */

#ifndef SHRIMP_NIC_PRAM_NI_HH
#define SHRIMP_NIC_PRAM_NI_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/bus_interfaces.hh"
#include "mem/xpress_bus.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace shrimp
{

/** One PRAM network interface board. */
class PramNi : public SimObject, public BusTarget
{
  public:
    static constexpr Addr sramBytes = 32 * 1024;

    struct Params
    {
        Addr sramBase = 0x5000'0000;    //!< physical window base
        /** Local write to remote SRAM update latency. The PRAM
         *  prototype's point-to-point path, a few microseconds. */
        Tick propagationLatency = 3 * ONE_US;
    };

    PramNi(EventQueue &eq, std::string name, const Params &params,
           XpressBus &bus)
        : SimObject(eq, std::move(name)),
          _params(params),
          _sram(sramBytes, 0),
          _stats(this->name())
    {
        _stats.addStat(&_writesPropagated);
        bus.addTarget(params.sramBase, sramBytes, this);
    }

    /** Connect to the peer interface (symmetric; call on both). */
    void connectPeer(PramNi *peer) { _peer = peer; }

    const Params &params() const { return _params; }
    Addr sramBase() const { return _params.sramBase; }
    PageNum sramBasePage() const { return pageOf(_params.sramBase); }
    std::size_t sramPages() const { return sramBytes / PAGE_SIZE; }

    // ---- BusTarget ----
    std::uint64_t
    busRead(Addr paddr, unsigned size) override
    {
        Addr off = paddr - _params.sramBase;
        std::uint64_t v = 0;
        std::memcpy(&v, _sram.data() + off, size);
        return v;
    }

    void
    busWrite(Addr paddr, const void *buf, Addr len) override
    {
        Addr off = paddr - _params.sramBase;
        std::memcpy(_sram.data() + off, buf, len);

        // Dual-ported SRAM: the write is mirrored into the peer's
        // SRAM after the propagation latency.
        if (_peer) {
            std::vector<std::uint8_t> copy(
                static_cast<const std::uint8_t *>(buf),
                static_cast<const std::uint8_t *>(buf) + len);
            ++_writesPropagated;
            eventQueue().scheduleFn(
                [peer = _peer, off, data = std::move(copy)]() {
                    peer->remoteDeposit(off, data.data(),
                                        data.size());
                },
                curTick() + _params.propagationLatency,
                EventPriority::DEFAULT, "pram propagate");
        }
    }

    /** A peer write landing in our SRAM (not re-propagated). */
    void
    remoteDeposit(Addr off, const void *buf, Addr len)
    {
        std::memcpy(_sram.data() + off, buf, len);
    }

    stats::Group &statGroup() { return _stats; }

  private:
    Params _params;
    std::vector<std::uint8_t> _sram;
    PramNi *_peer = nullptr;

    stats::Group _stats;
    stats::Counter _writesPropagated{"writesPropagated",
                                     "writes mirrored to the peer"};
};

} // namespace shrimp

#endif // SHRIMP_NIC_PRAM_NI_HH
