/**
 * @file
 * MapManager: the mapping half of the kernel.
 *
 * Implements the map()/unmap() protocol between kernels over the
 * in-band kernel channel, the registries of outgoing and incoming
 * mapping records, and the NIPT consistency protocol of Section 4.4:
 * before a node pages out a frame with incoming mappings, it asks
 * every source kernel to invalidate its NIPT entries; sources mark the
 * mapped-out virtual pages read-only, so a later store faults and the
 * kernel re-establishes the mapping on demand (REMAP).
 *
 * Channel wire format: the channel toward each peer is one kernel link
 * (Kernel::openLink), so each direction of each node pair has one
 * page. Requests occupy the 32-byte record at offset 0, responses the record
 * at offset 32. A record is [seq, type, payload[6]]; the sender writes
 * payload and type first and seq last, so (with the mesh's in-order
 * delivery) a changed seq implies a complete record.
 *
 * The correctness of eviction also leans on in-order delivery exactly
 * as the paper intends: a source clears its NIPT entries before
 * writing the INVALIDATE acknowledgement, so every user-data packet it
 * sent precedes the ack on the same source->evictor path, and the
 * evictor sees all in-flight data land before it frees the frame.
 */

#ifndef SHRIMP_OS_MAP_MANAGER_HH
#define SHRIMP_OS_MAP_MANAGER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "nic/nipt.hh"
#include "os/kernel.hh"
#include "os/syscalls.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

class Kernel;
class Process;

/** Kernel channel record geometry. */
namespace channel
{
constexpr Addr reqOffset = 0;
constexpr Addr respOffset = 32;
constexpr Addr seqWord = 0;     //!< byte offset within a record
constexpr Addr typeWord = 4;
constexpr Addr payloadWord = 8;
constexpr unsigned payloadWords = 6;

/** RPC types. */
constexpr std::uint32_t MAP_PAGE = 1;   //!< also used for REMAP
constexpr std::uint32_t UNMAP_PAGE = 2;
constexpr std::uint32_t INVALIDATE = 3;

/** DSM protocol (dispatched to the kernel's Dsm service). */
constexpr std::uint32_t DSM_GET = 4;    //!< requester -> home: fault
constexpr std::uint32_t DSM_PUT = 5;    //!< home -> requester: grant
constexpr std::uint32_t DSM_FETCH = 6;  //!< home -> owner: recall
constexpr std::uint32_t DSM_WB = 7;     //!< owner -> home: writeback
constexpr std::uint32_t DSM_INVAL = 8;  //!< home -> sharer: shootdown
} // namespace channel

/** One in-flight or queued kernel RPC. */
struct KernelRpc
{
    std::uint32_t type = 0;
    std::array<std::uint32_t, channel::payloadWords> payload{};
    /** Called with the response payload words. */
    std::function<void(const std::uint32_t *resp)> onResponse;
};

/** The mapping/consistency manager owned by each Kernel. */
class MapManager : public LinkHandler
{
  public:
    /** Opens the kernel channel toward every peer. */
    explicit MapManager(Kernel &kernel);

    /**
     * Source-side record of one outgoing mapping half. A whole-page
     * mapping has halfBegin 0 and halfEnd PAGE_SIZE; split mappings
     * (Section 3.2) cover [halfBegin, halfEnd) of the source page.
     */
    struct OutRecord
    {
        Pid pid = 0;
        PageNum vpage = INVALID_PAGE;
        Addr halfBegin = 0;
        Addr halfEnd = PAGE_SIZE;
        std::int32_t dstDelta = 0;  //!< destination offset adjustment
        NodeId dstNode = INVALID_NODE;
        Pid dstPid = 0;
        PageNum dstVpage = INVALID_PAGE;
        PageNum dstFrame = INVALID_PAGE;
        UpdateMode mode = UpdateMode::NONE;
        std::uint32_t flags = 0;
        bool invalidated = false;
        bool highSlot = false;  //!< which NIPT slot holds this half
    };

    /** Receiver-side record of one incoming mapping. */
    struct InRecord
    {
        Pid pid = 0;
        PageNum vpage = INVALID_PAGE;
        NodeId srcNode = INVALID_NODE;
        std::uint32_t flags = 0;
        bool pinned = false;
    };

    /**
     * Run the full map protocol for the MAP syscall: per destination
     * page, an RPC to the destination kernel, then local NIPT/page
     * table installation. @p done fires with err::OK or an errno.
     */
    void startMap(Process &proc, const MapArgs &args,
                  std::function<void(std::uint64_t)> done);

    /** Run the unmap protocol (reverse of startMap). */
    void startUnmap(Process &proc, const MapArgs &args,
                    std::function<void(std::uint64_t)> done);

    /** Source-side bookkeeping + NIPT install without the protocol
     *  (Kernel::mapDirect / boot wiring). */
    void recordOutDirect(OutRecord rec, PageNum local_frame);

    /**
     * Can a mapping half covering [begin, end) of @p frame still be
     * installed? False when both NIPT slots are taken or the new half
     * would overlap the existing one's coverage (the hardware allows
     * one split point per page, Section 3.2).
     */
    bool canInstallHalf(PageNum frame, Addr begin, Addr end) const;

    /** Receiver-side bookkeeping + NIPT install without protocol. */
    void recordInDirect(const InRecord &rec, PageNum frame,
                        bool arrival_interrupt);

    /**
     * Invalidate remote NIPT entries pointing at local @p frame (the
     * eviction shootdown). @p done fires when every source kernel has
     * acknowledged.
     */
    void shootdown(PageNum frame, std::function<void()> done);

    /** Does a write fault on (@p pid, @p vpage) belong to us? */
    bool needsRemap(Pid pid, PageNum vpage) const;

    /**
     * Re-establish all invalidated mappings of (@p proc, @p vpage);
     * fires @p done(err) when complete. The kernel restores write
     * permission and retries the faulting store on success.
     */
    void startRemap(Process &proc, PageNum vpage,
                    std::function<void(std::uint64_t)> done);

    /**
     * The kernel channel from @p peer received data; parse and
     * dispatch. Returns instructions of kernel work performed
     * (including any RPC-completion continuations run).
     */
    std::uint64_t handleArrival(NodeId peer) override;

    /** Frame of (pid, vpage) changed (page-in): reinstall NIPT state
     *  for its active outgoing records. */
    void frameMoved(Pid pid, PageNum vpage, PageNum new_frame);

    /** Frame is being freed: clear all NIPT state attached to it. */
    void frameDropped(PageNum frame);

    /**
     * A process exited: remove its outgoing mappings from the local
     * NIPT and records, and return the local frames that still have
     * incoming mappings registered for it (the kernel shoots those
     * down so remote senders stop targeting a dead process).
     */
    std::vector<PageNum> cleanupProcess(Pid pid);

    /** Release the incoming-mapping state of one frame (post-
     *  shootdown): unpin per pinned record and clear the NIPT. */
    void releaseInMappings(PageNum frame);

    /** Does local @p frame have incoming mappings? */
    bool hasInMappings(PageNum frame) const;

    // ---- node-failure recovery (driven by Kernel::peerDied /
    //      peerRecovered / restart) ----

    /**
     * Peer @p peer was declared dead: drop every incoming-mapping
     * record it registered (unpinning frames and rebuilding NIPT
     * source lists). Data can no longer arrive from it, and a
     * rejoining peer must re-establish its mappings explicitly.
     *
     * @return records purged.
     */
    unsigned purgeDeadPeerIn(NodeId peer);

    /**
     * Drop every outgoing user mapping toward @p peer (its NIPT halves
     * were errored when the peer died). Called on peer recovery: the
     * application must re-map explicitly; kernel links are healed
     * separately by the NI.
     *
     * @return records dropped.
     */
    unsigned purgeOutTo(NodeId peer);

    /**
     * Reset the RPC engine toward @p peer: in-flight and queued RPCs
     * complete with @p errno_ — err::HOSTDOWN for a dead peer,
     * err::STALE_EPOCH when the peer started a new life — waking any
     * blocked map()/unmap() callers, and sequence numbers restart from
     * scratch, matching a rejoining peer's fresh channel state.
     */
    void resetPeer(NodeId peer, std::uint64_t errno_ = err::HOSTDOWN);

    /** Zero the channel page @p peer writes into, so stale seq words
     *  from its previous life cannot replay old RPCs against a reset
     *  engine. */
    void clearChannelIn(NodeId peer);

    /**
     * Drop every pin held on behalf of incoming mappings. Used at
     * kernel teardown, before process address spaces return their
     * frames.
     */
    void releaseAllPins();

    /** Add kernel work to the current interrupt's accounting. */
    void addWork(std::uint64_t instructions) { _workAccum += instructions; }

    /** Queue an RPC on the shared kernel channel toward @p peer (the
     *  DSM service rides the same ordered, retransmitted path). */
    void sendRpc(NodeId peer, KernelRpc rpc);

    const std::vector<OutRecord> &outRecords() const { return _out; }

  private:
    struct PeerState
    {
        std::deque<KernelRpc> queue;
        bool inFlight = false;
        KernelRpc current;
        std::uint32_t nextSeq = 1;
        std::uint32_t lastReqSeen = 0;
        std::uint32_t lastRespSeen = 0;
    };

    void transmit(NodeId peer, PeerState &state);

    /** Stamp (incarnation, view-of-peer) into payload words [4],[5]
     *  of an outgoing record (no-op while health is off). */
    void stampPayload(NodeId peer, std::uint32_t *words) const;

    /**
     * Read the payload of the record at @p rec_offset of our in
     * channel from @p peer and admit the stamp in its words [4],[5]
     * (always admitted while health is off). Admitting a newer life
     * resets this engine re-entrantly. @return whether admitted.
     */
    bool readAdmitted(NodeId peer, Addr rec_offset,
                      std::uint32_t *payload);

    /** Write one record into our out channel to @p peer. */
    void writeRecord(NodeId peer, Addr rec_offset, std::uint32_t seq,
                     std::uint32_t type, const std::uint32_t *payload);

    std::uint32_t handleMapPage(NodeId peer, const std::uint32_t *p,
                                std::uint32_t *resp);
    std::uint32_t handleUnmapPage(NodeId peer, const std::uint32_t *p);
    std::uint32_t handleInvalidate(NodeId peer, const std::uint32_t *p);

    /**
     * Which NIPT slot a half covering [begin, end) would occupy:
     * false = low, true = high; nullopt if it cannot be installed.
     */
    std::optional<bool> slotForHalf(const NiptEntry &e, Addr begin,
                                    Addr end) const;

    /** Write one out-mapping half into the local NIPT; sets
     *  rec.highSlot to the slot used. */
    void installOutHalf(PageNum frame, OutRecord &rec);

    /** Clear one out-mapping half from the local NIPT. */
    void clearOutHalf(PageNum frame, const OutRecord &rec);

    /** Close @p frame's NIPT in-side once it has no incoming records
     *  left. */
    void syncNiptIn(PageNum frame);

    /** Current local frame of (pid, vpage), or INVALID_PAGE. */
    PageNum frameOf(Pid pid, PageNum vpage) const;

    // Each operation's step sends one RPC whose response handler owns
    // the rest of the operation and runs the next step.

    /** Map page @p i of @p args and the rest of the range. */
    void mapStep(Process &proc, const MapArgs &args, std::uint32_t i,
                 std::function<void(std::uint64_t)> done);
    /** Unmap page @p i of @p args and the rest of the range. */
    void unmapStep(Process &proc, const MapArgs &args, std::uint32_t i,
                   std::function<void(std::uint64_t)> done);
    /** Re-establish the next invalidated half of @p vpage, or finish. */
    void remapStep(Process &proc, PageNum vpage,
                   std::function<void(std::uint64_t)> done);

    /** The invalidated record of (@p pid, @p vpage) whose half starts
     *  at @p half_begin, or with none given the first; else nullptr. */
    OutRecord *invalidatedRecord(Pid pid, PageNum vpage,
                                 std::optional<Addr> half_begin = {});

    Kernel &_kernel;
    std::vector<KernelLink> _channels;  //!< indexed by peer node id
    std::vector<PeerState> _peers;
    std::vector<OutRecord> _out;
    std::map<PageNum, std::vector<InRecord>> _inByFrame;

    std::uint64_t _workAccum = 0;

    stats::Group _stats;
    stats::Counter _rpcsSent{_stats, "rpcsSent",
                             "kernel RPC requests sent on the channel"};
    stats::Counter _invalidationsReceived{
        _stats, "invalidationsReceived",
        "INVALIDATE requests applied to local NIPT entries"};
    stats::Counter _remaps{_stats, "remapsCompleted",
                           "invalidated pages re-mapped after a store fault"};
};

} // namespace shrimp

#endif // SHRIMP_OS_MAP_MANAGER_HH
