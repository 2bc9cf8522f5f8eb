/**
 * @file
 * Dsm: distributed shared memory over virtual memory-mapped
 * communication -- the natural proof of the paper's thesis that the
 * network is an extension of the memory system.
 *
 * A fixed window of pages is interleaved across the machine by home
 * node (page % nodes). Each home node keeps the ownership directory
 * for its pages: the set of read sharers, the single write-exclusive
 * owner, and a pinned home frame holding the last written-back copy.
 * A page fault becomes a VMMC transaction: the faulting kernel sends a
 * DSM_GET to the home over the kernel RPC channel; the home serializes
 * requests per page, recalls the page from an exclusive owner
 * (DSM_FETCH + deliberate-DMA writeback) or shoots down read sharers
 * (DSM_INVAL, the Section 4.4 invalidation path) as needed, and then
 * grants the page with a deliberate-DMA page transfer followed by a
 * DSM_PUT; the requester maps the frame and resumes the faulting
 * instruction.
 *
 * All control traffic rides the kernel RPC channel, so retransmission,
 * congestion control and admission control apply unchanged. Page data
 * travels over one kernel link per node pair (Kernel::openLink): the
 * sender stages the page image in the link's out frame and DMAs it
 * into the receiver's in frame, the bounce frame. The receiver copies
 * the bounce frame out inside the RPC request handler,
 * before writing the acknowledgement, and the sender starts its next
 * message to that peer only after the ack -- so with in-order delivery
 * the bounce frame is never overwritten while still holding live data,
 * and control messages never overtake the page data they describe.
 *
 * Failure semantics: when the failure detector declares a node DEAD,
 * pages it owned exclusively become errored at their home (faults
 * answer err::HOSTDOWN, nothing hangs) until the owner recovers, at
 * which point the page is re-homed with the last written-back
 * contents. Requesters symmetrically drop cached copies of pages
 * homed on a dead node and fail pending faults with HOSTDOWN.
 */

#ifndef SHRIMP_OS_DSM_HH
#define SHRIMP_OS_DSM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "os/map_manager.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace shrimp
{

class Kernel;
class Process;

/** Configuration of the DSM service (SystemConfig::dsm). */
struct DsmConfig
{
    bool enabled = false;
    /** Pages in the shared window, interleaved home = page % nodes. */
    std::uint32_t numPages = 16;
};

/** Local state of one DSM page on one node. */
enum class DsmPageState : std::uint8_t
{
    INVALID,            //!< no local copy
    READ_SHARED,        //!< read-only copy; home tracks us as a sharer
    WRITE_EXCLUSIVE,    //!< sole writable copy machine-wide
};

/** The per-node DSM service (owned by the Kernel). */
class Dsm
{
  public:
    /** Base virtual address of the shared window in attached
     *  processes (well above the user heap's bump allocator). */
    static constexpr Addr baseVaddr = 0x4000'0000;
    static_assert(pageOffset(baseVaddr) == 0,
                  "DSM base address not page aligned");

    /**
     * Minimum time the home waits after granting a page before
     * serving the next waiter for it. Without this, a recall or
     * shootdown can reach the grantee before its CPU re-executes the
     * faulting instruction, and under contention (spin-waiters
     * against a writer) the page ping-pongs forever with nobody
     * making progress. The window must cover the page-data DMA plus
     * the trap-exit and re-execution time; it only costs anything on
     * contended pages (an empty waiter queue never waits).
     */
    static constexpr Tick grantHold = 200 * ONE_US;

    /** Pins the home frames of the pages homed here, then opens the
     *  page link toward every peer. */
    Dsm(Kernel &kernel, const DsmConfig &cfg);

    /** Local bounce frame that receives page data from @p peer. */
    PageNum bounceInFrame(NodeId peer) const;

    /** Attach one process: the DSM window appears at baseVaddr and
     *  pages fault in on demand. One process per node. */
    void attach(Process &proc);

    // ---- the fault path ----

    /** Does a fault at (@p proc, @p vaddr) fall in the DSM window? */
    bool managesFault(const Process &proc, Addr vaddr) const;

    /** Service a DSM fault: @p done fires with err::OK once the page
     *  is mapped (or an errno, e.g. err::HOSTDOWN). */
    void faultOn(Process &proc, Addr vaddr, bool write,
                 std::function<void(std::uint64_t)> done);

    /**
     * Host/test driven acquire: bring @p page to READ_SHARED
     * (@p write false) or WRITE_EXCLUSIVE (@p write true) locally.
     * Also installs the window PTE when a process is attached.
     * Requests to one page are served FIFO per node and serialized
     * machine-wide by the page's home.
     */
    void acquire(std::uint32_t page, bool write,
                 std::function<void(std::uint64_t)> done);

    // ---- RPC plumbing (called from MapManager dispatch) ----

    /** Handle an incoming DSM request; returns resp[0] (an errno). */
    std::uint32_t handleRpc(NodeId peer, std::uint32_t type,
                            const std::uint32_t *payload,
                            std::uint32_t *resp);

    // ---- node-failure integration (driven by the Kernel) ----

    /** Peer declared DEAD: error pages it owned, drop it from sharer
     *  sets and waiter queues, drop our copies of pages it homes, and
     *  fail everything queued toward it with HOSTDOWN. Idempotent. */
    void peerDied(NodeId peer);

    /** A DEAD peer recovered: re-home pages errored on its account
     *  (contents = last home writeback). */
    void peerRecovered(NodeId peer);

    /**
     * Peer @p peer started a new life (incarnation @p inc) without
     * necessarily ever being declared DEAD here (partition heal).
     * Everything bound to its old life is void: grants it held are
     * revoked (the page re-homes to the last written-back copy,
     * exactly once, since the owner field is cleared), its sharer and
     * waiter records are dropped, and our copies of pages it homes are
     * discarded (its directory no longer knows about them).
     */
    void peerEpochChanged(NodeId peer, std::uint32_t inc);

    /**
     * This node started a new life (partition heal or restart) while
     * its memory survived: copies of remotely-homed pages may have
     * been re-homed behind our back, so holding on to them could
     * create a second WRITE_EXCLUSIVE owner. Drop them all.
     */
    void fenceSelf();

    /** This node restarted: all local copies and pending requests are
     *  gone; the directory restarts empty (home frames persist). */
    void reset();

    // ---- introspection (tests, chaos invariants) ----

    std::uint32_t numPages() const { return _cfg.numPages; }
    NodeId homeNode(std::uint32_t page) const;
    bool isHome(std::uint32_t page) const;

    DsmPageState localState(std::uint32_t page) const;
    PageNum localFrame(std::uint32_t page) const;

    /** Home-side directory views (page must be homed here). */
    NodeId ownerOf(std::uint32_t page) const;
    const std::vector<NodeId> &sharersOf(std::uint32_t page) const;
    bool errored(std::uint32_t page) const;
    PageNum homeFrameOf(std::uint32_t page) const;

    const stats::Histogram &faultLatency() const
    {
        return _faultLatency;
    }

  private:
    // ---- requester side ----

    struct LocalPage
    {
        DsmPageState state = DsmPageState::INVALID;
        PageNum frame = INVALID_PAGE;
    };

    struct LocalReq
    {
        std::uint64_t id = 0;
        bool write = false;
        bool issued = false;    //!< head request sent to the home
        std::function<void(std::uint64_t)> done;
        Tick start = 0;
    };

    static bool satisfied(const LocalPage &lp, bool write);

    /** Issue the head request of @p page's local queue. */
    void issueHead(std::uint32_t page);

    /** Complete the head request with @p status (OK samples the fault
     *  latency histogram), then drain/issue the rest of the queue. */
    void completeLocal(std::uint32_t page, std::uint64_t status);

    /** Like completeLocal but only if the head is still request
     *  @p id (deferred synthetic failures may arrive stale). */
    void completeLocalIf(std::uint32_t page, std::uint64_t id,
                         std::uint64_t status);

    /** Map @p frame at the page's window vaddr (if attached) and set
     *  the local state. */
    void installLocal(std::uint32_t page, PageNum frame, bool write);

    /** Drop the local copy: unmap the PTE and free a cache frame. */
    void dropLocal(std::uint32_t page);

    /** The page's home forgot us (died, restarted, or we restarted):
     *  drop the local copy, then fail every queued local request with
     *  @p status. Counts dsmHostdownFaults for err::HOSTDOWN only. */
    void failLocal(std::uint32_t page, std::uint64_t status);

    // ---- home-side directory ----

    struct HomeReq
    {
        NodeId requester = INVALID_NODE;
        bool write = false;
        /** Requester claimed a READ_SHARED copy in its DSM_GET; a
         *  write grant can skip the data transfer only when this and
         *  the directory's sharer set agree (an asymmetric failure
         *  flap can make either side stale). */
        bool haveCopy = false;
    };

    struct DirEntry
    {
        bool homedHere = false;
        PageNum homeFrame = INVALID_PAGE;
        std::vector<NodeId> sharers;
        NodeId owner = INVALID_NODE;
        /** Incarnation of the owner's life the write grant was made
         *  to (0 = health off). A DSM_WB stamped from any other life
         *  of the grantee is fenced (split-brain protection). */
        std::uint32_t granteeIncarnation = 0;
        /** Owner whose death errored the page (for re-homing). */
        NodeId lostOwner = INVALID_NODE;
        bool errored = false;
        bool busy = false;          //!< head waiter being served
        unsigned pendingAcks = 0;   //!< DSM_INVAL acks outstanding
        bool awaitingWb = false;    //!< DSM_FETCH sent, writeback due
        /** Bumped whenever the in-progress sequence dies (finish,
         *  owner loss, reset); orphans stale FETCH/INVAL callbacks. */
        std::uint64_t gen = 0;
        /** Tick of the last successful grant; the pump will not take
         *  up the next waiter before lastGrant + cfg.grantHold. */
        Tick lastGrant = 0;
        bool pumpDeferred = false;  //!< hold-expiry pump scheduled
        std::deque<HomeReq> waiters;
    };

    void dirEnqueue(std::uint32_t page, NodeId requester, bool write,
                    bool haveCopy);
    void pump(std::uint32_t page);

    /** Drive the head waiter one step; re-entrant -- called again
     *  after each writeback / invalidation ack until it grants. */
    void runHead(std::uint32_t page);

    /** Grant the head waiter its copy: a read joins the sharers, a
     *  write takes exclusive ownership. */
    void grant(std::uint32_t page);

    /** Send @p dst the DSM_PUT that answers its request for @p page,
     *  with the home frame's image when @p with_data. */
    void sendPut(NodeId dst, std::uint32_t page, bool write,
                 bool with_data, std::uint64_t status);

    /** Pop the head waiter with @p status (error PUT to remote
     *  requesters), then pump the next. */
    void finishHead(std::uint32_t page, std::uint64_t status);

    void ackInval(std::uint32_t page, std::uint64_t gen);

    /** The exclusive owner's copy is unrecoverable: error the page
     *  and fail the head waiter. Idempotent. */
    void ownerLost(std::uint32_t page);

    /** Remove @p peer from the read sharers and from the queued
     *  waiters; an in-service head fails through the grant-time
     *  check instead. */
    void forgetPeer(DirEntry &d, NodeId peer);

    /** If @p peer's death errored the page, make it servable again
     *  from the last written-back home copy. Exactly once per loss:
     *  returns whether it re-homed. */
    bool rehome(DirEntry &d, NodeId peer);

    // ---- ordered per-peer message queue (control + page data) ----

    struct DsmMsg
    {
        std::uint32_t type = 0;
        std::array<std::uint32_t, channel::payloadWords> payload{};
        bool withData = false;
        /** Page image captured at enqueue time (the source frame may
         *  be freed or rewritten before the transfer starts). */
        std::vector<std::uint8_t> data;
        std::function<void(const std::uint32_t *resp)> onResponse;
    };

    struct PeerLink
    {
        /** in: the bounce frame the peer's page images land in;
         *  out: the staging frame our DMA toward the peer reads. */
        KernelLink frames;
        std::deque<DsmMsg> queue;
        bool active = false;        //!< head sent, awaiting its ack
        /** Bumped on queue teardown; orphans DMA retries, DMA
         *  completions and acks. */
        std::uint64_t gen = 0;
    };

    void sendMsg(NodeId dst, DsmMsg msg);
    void startNext(NodeId dst);
    void startDma(NodeId dst, std::uint64_t gen);
    void postMsgRpc(NodeId dst);
    void msgAcked(NodeId dst, std::uint64_t gen,
                  const std::uint32_t *resp);
    /** Fail every queued message toward @p dst with HOSTDOWN
     *  (responses run as deferred events, never re-entrantly). */
    void failAllMsgs(NodeId dst);
    /** Answer @p m with HOSTDOWN from a deferred event, if it wants a
     *  response (its onResponse is moved out). */
    void failMsg(DsmMsg &m);
    /** The page image toward @p dst is on the wire: send its RPC,
     *  unless the queue of generation @p gen was torn down since. */
    void dmaCompleted(NodeId dst, std::uint64_t gen);

    // ---- request handlers (home / owner / sharer side) ----

    std::uint32_t handleGet(NodeId peer, const std::uint32_t *p);
    std::uint32_t handlePut(NodeId peer, const std::uint32_t *p);
    std::uint32_t handleFetch(NodeId peer, const std::uint32_t *p);
    std::uint32_t handleWb(NodeId peer, const std::uint32_t *p);
    std::uint32_t handleInval(NodeId peer, const std::uint32_t *p);

    // ---- helpers ----

    void copyFrame(PageNum src, PageNum dst);
    std::vector<std::uint8_t> readFrame(PageNum frame) const;
    Addr windowVaddr(std::uint32_t page) const;

    Kernel &_kernel;
    DsmConfig _cfg;
    Process *_proc = nullptr;

    std::vector<LocalPage> _local;
    std::map<std::uint32_t, std::deque<LocalReq>> _reqs;
    std::uint64_t _nextReqId = 1;

    std::vector<DirEntry> _dir;
    std::vector<PeerLink> _links;

    stats::Group _stats;
    stats::Counter _faults{_stats, "dsmFaults",
                           "DSM faults not satisfied locally"};
    stats::Counter _fetches{_stats, "dsmFetches",
                            "fetch-page recalls sent to owners"};
    stats::Counter _invalidations{
        _stats, "dsmInvalidations", "sharer shootdowns applied locally"};
    stats::Counter _rehomes{
        _stats, "dsmRehomes", "errored pages re-homed after owner recovery"};
    stats::Counter _hostdown{
        _stats, "dsmHostdownFaults", "DSM faults failed with err::HOSTDOWN"};
    stats::Counter _pagesSent{
        _stats, "dsmPagesSent", "page images DMA-ed to peers"};
    stats::Counter _fencedWritebacks{
        _stats, "dsmFencedWritebacks",
        "writebacks fenced: not from the granted owner's life"};
    stats::Histogram _faultLatency{
        _stats, "dsmFaultLatency",
        "fault-to-resume latency of DSM faults, in ticks"};
};

} // namespace shrimp

#endif // SHRIMP_OS_DSM_HH
