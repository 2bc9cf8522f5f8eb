/**
 * @file
 * Discrete-event simulation core: Event and EventQueue.
 *
 * Every node, bus, router and NIC in the machine shares one global event
 * queue, so there is a single global notion of simulated time. Events at
 * the same tick are ordered by priority (lower value runs first), then by
 * insertion order, which makes simulations fully deterministic.
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.hh"

namespace shrimp
{

class EventQueue;

namespace trace
{
class Tracer;
} // namespace trace

/**
 * Base class for schedulable events. Components typically embed Event
 * subclasses (or EventFunctionWrapper) as members and reschedule them,
 * avoiding per-occurrence allocation.
 */
class Event
{
  public:
    virtual ~Event();

    /** Invoked by the event queue when the event's time arrives. */
    virtual void process() = 0;

    /** Human-readable description for traces. */
    virtual const char *description() const { return "generic event"; }

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    int _priority = 0;
    std::uint64_t _stamp = 0;   //!< matches queue entry; bumped to cancel
    bool _scheduled = false;
    bool _oneShot = false;      //!< queue-owned scheduleFn() wrapper
    EventQueue *_queue = nullptr;   //!< queue holding us while scheduled
};

/**
 * An Event that invokes a bound std::function. The workhorse event type:
 * components declare members like
 * `EventFunctionWrapper drainEvent{[this]{ drain(); }, "drain"};`
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> fn, const char *desc)
        : _fn(std::move(fn)), _desc(desc)
    {}

    void process() override { _fn(); }
    const char *description() const override { return _desc; }

  private:
    std::function<void()> _fn;
    const char *_desc;
};

/** Scheduling priorities; lower runs first within a tick. */
struct EventPriority
{
    static constexpr int CLOCK = -10;    //!< clock-edge bookkeeping
    static constexpr int DEFAULT = 0;
    static constexpr int CPU = 10;       //!< CPU after devices at same tick
    static constexpr int STAT = 100;     //!< stat dumps after everything
};

/**
 * The global event queue. Deschedule is lazy: entries whose stamp no
 * longer matches the event's are skipped on pop.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * The structured tracer shared by every component on this queue,
     * or nullptr when tracing is off (the common, zero-overhead case).
     * Instrumentation sites test the pointer before recording.
     */
    trace::Tracer *tracer() const { return _tracer; }
    void setTracer(trace::Tracer *t) { _tracer = t; }

    /** Schedule @p ev at absolute time @p when (>= curTick). */
    void schedule(Event *ev, Tick when,
                  int priority = EventPriority::DEFAULT);

    /** Remove a scheduled event from the queue (never a one-shot). */
    void deschedule(Event *ev);

    /** Move an already (or not) scheduled event to a new time. */
    void reschedule(Event *ev, Tick when,
                    int priority = EventPriority::DEFAULT);

    /**
     * Schedule a one-shot callback. The wrapper event is heap-allocated
     * and owned by its single heap entry: it is deleted after it fires,
     * or by ~EventQueue if it never does. Callers never see it, so it
     * cannot be descheduled.
     */
    void scheduleFn(std::function<void()> fn, Tick when,
                    int priority = EventPriority::DEFAULT,
                    const char *desc = "one-shot");

    /** True if no live events remain. */
    bool empty() const { return _liveCount == 0; }

    /** Number of live (scheduled, not cancelled) events. */
    std::size_t size() const { return _liveCount; }

    /** Process a single event. Returns false if the queue was empty. */
    bool runOne();

    /**
     * Run until the queue empties or @p max_events have been processed.
     * Returns the number of events processed; hitting the cap usually
     * indicates a runaway simulation in a test.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0});

    /**
     * Process all events scheduled at or before @p when, then advance
     * the clock to @p when even if the queue drained earlier.
     */
    void runUntil(Tick when);

    /** Total events processed since construction. */
    std::uint64_t numProcessed() const { return _numProcessed; }

  private:
    struct QueueEntry
    {
        Tick when;
        int priority;
        bool owned;             //!< entry owns ev (one-shot)
        std::uint64_t seq;      //!< global insertion order (FIFO tiebreak)
        std::uint64_t stamp;    //!< must match ev->_stamp to be live
        Event *ev;
    };

    struct EntryCompare
    {
        bool
        operator()(const QueueEntry &a, const QueueEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    friend class Event;

    /** Push the heap entry for @p ev; @p owned hands it to the queue. */
    void push(Event *ev, Tick when, int priority, bool owned);

    /** Pop dead (cancelled/rescheduled) entries off the heap top. */
    void skipDead();

    /** An embedded event died while scheduled (component teardown). */
    void noteDead() { --_liveCount; }

    std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryCompare>
        _queue;
    trace::Tracer *_tracer = nullptr;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _nextStamp = 1;
    std::uint64_t _numProcessed = 0;
    std::size_t _liveCount = 0;
};

} // namespace shrimp

#endif // SHRIMP_SIM_EVENT_QUEUE_HH
