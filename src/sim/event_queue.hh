/**
 * @file
 * Discrete-event simulation core: Event and EventQueue.
 *
 * Every node, bus, router and NIC in the machine shares one global event
 * queue, so there is a single global notion of simulated time. Events at
 * the same tick are ordered by priority (lower value runs first), then by
 * insertion order, which makes simulations fully deterministic.
 * Insertion order is the order in which positions were taken: by
 * schedule(), or by reserve(), which takes a position without pushing
 * an event so that one can be pushed there later (scheduleAt()).
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
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
    /**
     * A position in the queue's order: the (tick, priority, insertion
     * seq) key of an event scheduled there.
     */
    struct Slot
    {
        Tick when = 0;
        int priority = EventPriority::DEFAULT;
        std::uint64_t seq = 0;

        bool
        operator<(const Slot &o) const
        {
            return std::tie(when, priority, seq) <
                   std::tie(o.when, o.priority, o.seq);
        }
    };

    EventQueue();
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
     * Schedule a one-shot callback. The queue owns its wrapper event
     * and reuses it once it has fired; the callback, with its
     * captures, is destroyed as soon as it has run (or thrown), or by
     * ~EventQueue if it never fires. Callers never see the wrapper,
     * so it cannot be descheduled.
     */
    void scheduleFn(std::function<void()> fn, Tick when,
                    int priority = EventPriority::DEFAULT,
                    const char *desc = "one-shot");

    /**
     * Take the position schedule() would give an event at @p when now,
     * without pushing one. It uses up one insertion seq, as schedule()
     * does, so no other event's order changes.
     */
    Slot reserve(Tick when, int priority = EventPriority::DEFAULT);

    /**
     * Has processing passed @p s: would an event scheduled at @p s
     * when @p s was reserved already have started? A slot reserved
     * inside an event is never reached before that event ends, even
     * if it orders before it; after runUntil(T), every slot reserved
     * so far at a tick up to T is reached, and after run() drains the
     * queue, every slot reserved so far.
     */
    bool reached(const Slot &s) const;

    /** Schedule @p ev at @p s, a reserved slot not yet reached. */
    void scheduleAt(Event *ev, const Slot &s);

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
        Slot at;
        std::uint64_t stamp;    //!< must match ev->_stamp to be live
        Event *ev;
    };

    struct EntryCompare
    {
        bool
        operator()(const QueueEntry &a, const QueueEntry &b) const
        {
            return b.at < a.at;
        }
    };

    /**
     * A position processing has passed, and the seq counter when it
     * did: every slot reserved before then and ordered at or before
     * it is reached.
     */
    struct Passed
    {
        Slot at;
        std::uint64_t before;
    };

    struct OneShot;

    friend class Event;

    /** Push the heap entry for @p ev at @p at. */
    void push(Event *ev, const Slot &at);

    /** Processing passed @p at: record it for reached(). */
    void pass(const Slot &at);

    /** Pop dead (cancelled/rescheduled) entries off the heap top. */
    void skipDead();

    /** An embedded event died while scheduled (component teardown). */
    void noteDead() { --_liveCount; }

    std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryCompare>
        _queue;
    /**
     * The passed positions reached() still needs, oldest first. Each
     * orders after every newer one: a newer position that orders at
     * or after an older one answers every query the older one could,
     * so pass() drops the older. Time only moves forward, so past the
     * end of a drained run() the list holds positions of the current
     * tick alone: a handful at most.
     */
    std::vector<Passed> _passed;
    /** Every one-shot wrapper ever made; the idle ones are listed in
     *  _freeOneShots for reuse. */
    std::vector<std::unique_ptr<OneShot>> _oneShots;
    std::vector<OneShot *> _freeOneShots;
    trace::Tracer *_tracer = nullptr;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _nextStamp = 1;
    std::uint64_t _numProcessed = 0;
    std::size_t _liveCount = 0;
};

/**
 * An embedded event whose owner can tell when firing it would do
 * nothing. A request made then only reserves the event's slot
 * (EventQueue::reserve); a later request that needs the event pushes
 * it at that slot (EventQueue::scheduleAt), and a slot reached unused
 * stands for a firing that did nothing. Each pushed event fires where
 * an event pushed at every request would have, so the simulation is
 * the same; the owner's part is that whatever can make a firing do
 * something is followed by a request that is not idle.
 */
class ElidableEvent : public EventFunctionWrapper
{
  public:
    ElidableEvent(EventQueue &eq, std::function<void()> fn,
                  const char *desc)
        : EventFunctionWrapper(std::move(fn), desc), _eq(eq)
    {}

    /** Scheduled, or reserved at a slot not yet reached. */
    bool
    pending() const
    {
        return scheduled() || (_reserved && !_eq.reached(_slot));
    }

    /** The tick the event is pending at; only while pending(). */
    Tick pendingAt() const { return scheduled() ? when() : _slot.when; }

    /**
     * Ask for the event at @p when, unless it is already pending.
     * @p idle says that the event would do nothing if it fired with
     * the state as it is: the request then only reserves a slot, and
     * a pending slot stays reserved. Otherwise the event is pushed,
     * at the pending slot if there is one.
     */
    void
    request(Tick when, bool idle)
    {
        if (pending()) {
            if (_reserved && !idle) {
                _reserved = false;
                _eq.scheduleAt(this, _slot);
            }
            return;
        }
        _reserved = idle;
        if (idle)
            _slot = _eq.reserve(when);
        else
            _eq.schedule(this, when);
    }

    /** Push the event at @p when, in place of any pending position. */
    void
    reschedule(Tick when)
    {
        _reserved = false;
        _eq.reschedule(this, when);
    }

    /** Deschedule the event or drop its reserved slot. */
    void
    cancel()
    {
        _reserved = false;
        if (scheduled())
            _eq.deschedule(this);
    }

  private:
    EventQueue &_eq;
    EventQueue::Slot _slot;
    bool _reserved = false;     //!< _slot is the event's position
};

} // namespace shrimp

#endif // SHRIMP_SIM_EVENT_QUEUE_HH
