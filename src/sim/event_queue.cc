#include "sim/event_queue.hh"

#include <memory>

#include "sim/logging.hh"

namespace shrimp
{

Event::~Event()
{
    // Components are routinely destroyed with events still pending
    // (system teardown): invalidate our queue entry without touching
    // the heap. The queue must outlive all embedded events; in this
    // simulator the EventQueue is always the first member of the
    // top-level system and therefore destroyed last.
    if (_scheduled && _queue) {
        _stamp = 0;
        _scheduled = false;
        _queue->noteDead();
    }
}

EventQueue::~EventQueue()
{
    // Reclaim one-shot events that never fired; their heap entries own
    // them. Entries of embedded events may dangle (the event has fired,
    // been cancelled or destroyed), so only owned entries are followed.
    while (!_queue.empty()) {
        const QueueEntry &top = _queue.top();
        if (top.owned) {
            top.ev->_scheduled = false;     // bypass the dtor's queue access
            // NOLINTNEXTLINE(shrimp-ownership-raw-new): queue-owned event
            delete top.ev;
        }
        _queue.pop();
    }
}

void
EventQueue::schedule(Event *ev, Tick when, int priority)
{
    SHRIMP_ASSERT(ev != nullptr, "null event");
    SHRIMP_ASSERT(!ev->_scheduled,
                  "double-schedule of '", ev->description(), "'");
    SHRIMP_ASSERT(when >= _curTick, "schedule in the past: ", when,
                  " < ", _curTick, " for '", ev->description(), "'");

    push(ev, when, priority, false);
}

void
EventQueue::push(Event *ev, Tick when, int priority, bool owned)
{
    ev->_when = when;
    ev->_priority = priority;
    ev->_stamp = _nextStamp++;
    ev->_scheduled = true;
    ev->_queue = this;
    _queue.push(
        QueueEntry{when, priority, owned, _nextSeq++, ev->_stamp, ev});
    ++_liveCount;
}

void
EventQueue::deschedule(Event *ev)
{
    SHRIMP_ASSERT(ev != nullptr, "null event");
    SHRIMP_ASSERT(ev->_scheduled,
                  "deschedule of unscheduled '", ev->description(), "'");
    SHRIMP_ASSERT(!ev->_oneShot,
                  "deschedule of one-shot '", ev->description(), "'");

    // Lazy removal: invalidate the stamp; the heap entry is skipped when
    // it reaches the top.
    ev->_stamp = 0;
    ev->_scheduled = false;
    --_liveCount;
}

void
EventQueue::reschedule(Event *ev, Tick when, int priority)
{
    if (ev->_scheduled)
        deschedule(ev);
    schedule(ev, when, priority);
}

void
EventQueue::scheduleFn(std::function<void()> fn, Tick when, int priority,
                       const char *desc)
{
    // Ownership passes to the event's heap entry; runOne() or
    // ~EventQueue reclaims it.
    // NOLINTNEXTLINE(shrimp-ownership-raw-new): queue-owned event
    auto *ev = new EventFunctionWrapper(std::move(fn), desc);
    ev->_oneShot = true;
    push(ev, when, priority, true);
}

void
EventQueue::skipDead()
{
    while (!_queue.empty()) {
        const QueueEntry &top = _queue.top();
        if (top.stamp == top.ev->_stamp && top.ev->_scheduled)
            return;
        _queue.pop();
    }
}

bool
EventQueue::runOne()
{
    skipDead();
    if (_queue.empty())
        return false;

    QueueEntry entry = _queue.top();
    _queue.pop();

    Event *ev = entry.ev;
    SHRIMP_ASSERT(entry.when >= _curTick, "time went backwards");
    _curTick = entry.when;

    ev->_scheduled = false;
    --_liveCount;
    ++_numProcessed;

    // A fired one-shot is reclaimed here, even if its callback throws.
    // Embedded events may reschedule themselves inside process(); a
    // one-shot cannot, since no caller holds a pointer to it.
    std::unique_ptr<Event> owner(entry.owned ? ev : nullptr);
    ev->process();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

void
EventQueue::runUntil(Tick when)
{
    for (;;) {
        skipDead();
        if (_queue.empty() || _queue.top().when > when)
            break;
        runOne();
    }
    if (when > _curTick)
        _curTick = when;
}

} // namespace shrimp
