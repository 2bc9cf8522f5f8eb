/**
 * @file
 * NetPacket: the packet format carried by the routing backplane.
 *
 * Per Section 3.1, a packet consists of routing information, the
 * absolute mesh coordinates of the intended receiver, a destination
 * memory address, data, and a CRC checksum. The receiver verifies the
 * coordinates and the CRC to detect misrouting and corruption.
 *
 * Beyond the paper: when the NI's reliability layer is enabled, the
 * header grows by an 8-byte extension carrying a packet kind
 * (DATA/ACK/NACK) and a per source->destination sequence number, and
 * the CRC covers both. Legacy (reliability-off) packets keep the exact
 * paper wire format so baseline timing is unchanged.
 */

#ifndef SHRIMP_NET_PACKET_HH
#define SHRIMP_NET_PACKET_HH

#include <cstdint>
#include <vector>

#include "net/crc.hh"
#include "sim/types.hh"

namespace shrimp
{

/** A backplane packet. */
struct NetPacket
{
    /** Wire overhead: route info + coords + address field. */
    static constexpr Addr headerBytes = 16;
    /** Wire overhead of the trailing checksum. */
    static constexpr Addr crcBytes = 2;
    /** Reliability header extension: kind + sequence number. */
    static constexpr Addr relHeaderBytes = 8;

    /** What the packet carries (reliability layer). */
    enum class Kind : std::uint8_t
    {
        DATA = 0,   //!< payload destined for mapped memory
        ACK,        //!< cumulative acknowledgement (rseq = next expected)
        NACK,       //!< fast-retransmit request (rseq = missing seq)
        HEARTBEAT,  //!< liveness keepalive (health service)
    };

    NodeId srcNode = INVALID_NODE;
    NodeId dstNode = INVALID_NODE;
    std::uint16_t dstX = 0;     //!< absolute mesh coords of receiver
    std::uint16_t dstY = 0;
    Addr dstPaddr = 0;          //!< destination physical memory address
    std::vector<std::uint8_t> payload;
    std::uint16_t crc = 0;

    // ---- reliability header extension (on the wire iff reliable) ----
    bool reliable = false;      //!< carries the extension
    Kind kind = Kind::DATA;
    /** DATA: per src->dst sequence number. ACK: next expected seq
     *  (everything below it is acknowledged). NACK: the missing seq.
     *  HEARTBEAT: the sender's packed (incarnation, view) stamp. */
    std::uint64_t rseq = 0;
    /**
     * Channel epoch: the sender's kernel incarnation number at
     * injection time (0 = epoch fencing off). Receivers drop packets
     * stamped from an older life of the sender and resynchronize the
     * reliability channel when a newer life appears, so a healed
     * partition cannot resurrect a pre-partition stream. Folded into
     * the reliability header's padding, so wireBytes() is unchanged.
     */
    std::uint32_t srcEpoch = 0;

    /**
     * ECN-style congestion signal. On DATA packets a router (queue
     * above threshold) or the receiving NIC (incoming FIFO nearly
     * full) sets it in flight; the receiver latches the mark and
     * echoes it on the next ACK so the sender shrinks its congestion
     * window before loss occurs. Mutates per hop, so not CRC'd.
     */
    bool congestion = false;

    // ---- adaptive-routing state (mutates per hop, so not CRC'd) ----
    /** Set when a router detoured around a dead Y link: downstream
     *  routers finish the Y dimension first so the packet cannot
     *  bounce back over the failed column. Cleared by an X detour. */
    bool yFirst = false;
    /** Detours taken so far; routers drop past a small budget rather
     *  than livelock between multiple failures. */
    std::uint8_t misroutes = 0;

    // ---- simulation bookkeeping (not on the wire) ----
    Tick injectedAt = 0;        //!< when the source NIC injected it
    /** A tag for order checks on packets a test builds itself; the
     *  NI leaves it 0. */
    std::uint64_t seq = 0;
    /** Lifecycle-trace flow id (trace::Tracer); 0 = not traced. */
    std::uint64_t traceId = 0;

    /** Total bytes this packet occupies on a link. */
    Addr
    wireBytes() const
    {
        return headerBytes + (reliable ? relHeaderBytes : 0) +
               payload.size() + crcBytes;
    }

    /** Compute the CRC over header fields and payload. */
    std::uint16_t
    computeCrc() const
    {
        Crc16 c;
        c.updateInt(srcNode, 4);
        c.updateInt(dstX, 2);
        c.updateInt(dstY, 2);
        c.updateInt(dstPaddr, 8);
        if (reliable) {
            c.updateInt(static_cast<std::uint64_t>(kind), 1);
            c.updateInt(rseq, 8);
            c.updateInt(srcEpoch, 4);
        }
        if (!payload.empty())
            c.update(payload.data(), payload.size());
        return c.value();
    }

    /** Seal the packet: stamp the CRC field. */
    void sealCrc() { crc = computeCrc(); }

    /** Verify integrity (as the receiving NIC does). */
    bool crcOk() const { return crc == computeCrc(); }
};

} // namespace shrimp

#endif // SHRIMP_NET_PACKET_HH
