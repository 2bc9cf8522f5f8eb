/**
 * @file
 * NxService: the kernel-level NX/2-style message-passing baseline the
 * paper compares against (Section 5.2, "NX/2 Primitives").
 *
 * This models the traditional software architecture of the iPSC/2's
 * NX/2: csend/crecv are system calls; messages pass through
 * kernel-managed buffers (one copy on each side); the kernel's fast
 * paths cost 222 / 261 instructions; and each message involves DMA
 * send/receive interrupts. It runs over the same simulated hardware,
 * so the comparison against the user-level SHRIMP primitives isolates
 * exactly the software-architecture difference the paper highlights:
 * user/kernel crossings, kernel buffering, and per-message interrupts.
 *
 * Messages are typed (16-bit), matched FIFO per type, with the paper's
 * restriction that each type has a single sender. One message may be
 * in flight per ordered node pair; a sender blocks until the
 * receiver's kernel returns the slot credit.
 *
 * The buffers toward each peer are kernel links (Kernel::openLink):
 * slotPages deliberate-update message pages and one automatic-update
 * control page that interrupts the receiver.
 */

#ifndef SHRIMP_OS_NX_SERVICE_HH
#define SHRIMP_OS_NX_SERVICE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "os/kernel.hh"
#include "os/syscalls.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

class Kernel;
class Process;
class ExecContext;

/** Kernel-level buffered message passing (the NX/2 baseline). */
class NxService : public LinkHandler
{
  public:
    /** Kernel buffer pages per ordered node pair (max message size). */
    static constexpr std::size_t slotPages = 2;
    static constexpr Addr maxMessageBytes = slotPages * PAGE_SIZE;

    /** Control page layout (one per ordered pair direction). */
    static constexpr Addr ctlDoorbellSeq = 0;
    static constexpr Addr ctlType = 4;
    static constexpr Addr ctlNbytes = 8;
    static constexpr Addr ctlCreditSeq = 16;

    /** With admission control on, the bound on blocked senders queued
     *  per destination. */
    static constexpr unsigned maxQueuedSendsPerPeer = 16;

    /** Opens the buffer and control links toward every peer. */
    explicit NxService(Kernel &kernel);

    /** Arrival interrupt on the control page from @p peer; returns
     *  instructions of kernel work performed. */
    std::uint64_t handleArrival(NodeId peer) override;

    /** SYS_NX_CSEND implementation. Returns the resume tick, or
     *  nullopt if the process blocked. A buffer that is not readable
     *  throughout fails with err::INVAL before the process blocks. */
    std::optional<Tick> csend(ExecContext &ctx, const NxArgs &args,
                              Tick now);

    /** SYS_NX_CRECV implementation. A buffer that is not writable
     *  throughout fails with err::INVAL before the process blocks; a
     *  message longer than args.nbytes fails the call with err::INVAL
     *  and stays queued for a later crecv with room. */
    std::optional<Tick> crecv(ExecContext &ctx, const NxArgs &args,
                              Tick now);

  private:
    struct PendingMessage
    {
        std::uint32_t type = 0;
        std::uint32_t nbytes = 0;
    };

    struct BlockedReceiver
    {
        Process *proc = nullptr;
        std::uint32_t type = 0;
        Addr buf = 0;
        std::uint32_t nbytes = 0;
    };

    struct BlockedSender
    {
        Process *proc = nullptr;
        NxArgs args;
    };

    /** State of one in-progress outgoing message (copy + DMA phase). */
    struct TransferState
    {
        bool active = false;
        Process *proc = nullptr;
        std::uint32_t type = 0;
        std::uint32_t nbytes = 0;
        std::uint32_t page = 0;         //!< slot page being DMA-ed
    };

    struct PeerState
    {
        std::array<KernelLink, slotPages> data;     //!< message pages
        KernelLink ctl;                 //!< doorbell and credit words

        std::uint32_t sendSeq = 0;      //!< doorbells we have rung
        std::uint32_t creditSeen = 0;   //!< credits returned to us
        std::uint32_t recvSeqSeen = 0;  //!< doorbells we have consumed
        TransferState xfer;             //!< active in the copy/DMA phase
        std::deque<BlockedSender> sendWaiters;
        std::optional<PendingMessage> pending;  //!< undelivered arrival
    };

    /** Slot is free when every doorbell we rang has been credited. */
    bool
    slotFree(const PeerState &peer) const
    {
        return !peer.xfer.active && peer.sendSeq == peer.creditSeen;
    }

    /** Copy + DMA + doorbell for one message (slot already free). */
    void beginTransfer(Process &proc, const NxArgs &args);

    /** Claim the (shared) DMA engine for the next slot page. */
    void startNextDmaPage(NodeId node);

    /** A slot page toward @p node is on the wire: interrupt the CPU. */
    void dmaCompleted(NodeId node);

    /** Doorbell + sender wakeup once all pages are on the wire. */
    void finishSend(NodeId node);

    /**
     * Copy @p nbytes between @p proc's buffer at @p buf and the message
     * pages toward @p peer: from the buffer into their out frames, or
     * (@p to_user) from their in frames into the buffer. The caller
     * checked the buffer when the call was made.
     */
    void copyMessage(Process &proc, Addr buf, Addr nbytes,
                     const PeerState &peer, bool to_user);

    /** Try to deliver a pending message to a blocked receiver. */
    std::uint64_t tryDeliver(NodeId from);

    /** Copy a delivered message into a receiver's buffer + credit, or
     *  fail the receiver with err::INVAL if the message exceeds its
     *  @p nbytes (the message stays pending). */
    std::uint64_t deliverTo(NodeId from, Process &proc, Addr buf,
                            std::uint32_t nbytes);

    Kernel &_kernel;
    std::vector<PeerState> _peers;
    std::vector<BlockedReceiver> _blockedReceivers;

    stats::Group _stats;
    stats::Counter _sent{_stats, "messagesSent",
                         "messages sent (doorbell rung)"};
    stats::Counter _delivered{_stats, "messagesDelivered",
                              "messages copied to a receiver"};
};

} // namespace shrimp

#endif // SHRIMP_OS_NX_SERVICE_HH
