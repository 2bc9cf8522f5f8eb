#include "sim/event_queue.hh"

#include <limits>

#include "sim/logging.hh"

namespace shrimp
{

/** A scheduleFn() callback; the queue owns it and reuses it. */
struct EventQueue::OneShot : Event
{
    std::function<void()> fn;
    const char *desc = "one-shot";

    void process() override { fn(); }
    const char *description() const override { return desc; }
};

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

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // One-shots that never fired die here, captures and all. Heap
    // entries are not followed: those of embedded events may dangle
    // (the event has fired, been cancelled or destroyed).
    for (auto &shot : _oneShots)
        shot->_scheduled = false;   // bypass the dtor's queue access
    _oneShots.clear();
}

void
EventQueue::schedule(Event *ev, Tick when, int priority)
{
    SHRIMP_ASSERT(ev != nullptr, "null event");
    SHRIMP_ASSERT(!ev->_scheduled,
                  "double-schedule of '", ev->description(), "'");
    SHRIMP_ASSERT(when >= _curTick, "schedule in the past: ", when,
                  " < ", _curTick, " for '", ev->description(), "'");

    push(ev, Slot{when, priority, _nextSeq++});
}

EventQueue::Slot
EventQueue::reserve(Tick when, int priority)
{
    SHRIMP_ASSERT(when >= _curTick, "reserve in the past: ", when, " < ",
                  _curTick);
    return Slot{when, priority, _nextSeq++};
}

bool
EventQueue::reached(const Slot &s) const
{
    // The oldest passed position taken after s was reserved orders
    // after every newer one, so it alone decides.
    for (const Passed &p : _passed) {
        if (p.before > s.seq)
            return !(p.at < s);
    }
    return false;
}

void
EventQueue::scheduleAt(Event *ev, const Slot &s)
{
    SHRIMP_ASSERT(ev != nullptr, "null event");
    SHRIMP_ASSERT(!ev->_scheduled,
                  "double-schedule of '", ev->description(), "'");
    SHRIMP_ASSERT(!reached(s), "scheduleAt a reached slot for '",
                  ev->description(), "'");
    push(ev, s);
}

void
EventQueue::push(Event *ev, const Slot &at)
{
    ev->_when = at.when;
    ev->_priority = at.priority;
    ev->_stamp = _nextStamp++;
    ev->_scheduled = true;
    ev->_queue = this;
    _queue.push(QueueEntry{at, ev->_stamp, ev});
    ++_liveCount;
}

void
EventQueue::pass(const Slot &at)
{
    while (!_passed.empty() && !(at < _passed.back().at))
        _passed.pop_back();
    _passed.push_back(Passed{at, _nextSeq});
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
    if (_freeOneShots.empty()) {
        _oneShots.push_back(std::make_unique<OneShot>());
        _oneShots.back()->_oneShot = true;
        _freeOneShots.reserve(_oneShots.size());
        _freeOneShots.push_back(_oneShots.back().get());
    }
    OneShot *shot = _freeOneShots.back();
    _freeOneShots.pop_back();
    shot->fn = std::move(fn);
    shot->desc = desc;
    push(shot, Slot{when, priority, _nextSeq++});
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
    SHRIMP_ASSERT(entry.at.when >= _curTick, "time went backwards");
    _curTick = entry.at.when;
    pass(entry.at);

    ev->_scheduled = false;
    --_liveCount;
    ++_numProcessed;

    if (!ev->_oneShot) {
        // Embedded events may reschedule themselves inside process().
        ev->process();
        return true;
    }

    // A fired one-shot goes back to the pool with its callback
    // destroyed, even if the callback throws. It cannot reschedule
    // itself, since no caller holds a pointer to it.
    auto *shot = static_cast<OneShot *>(ev);
    auto recycle = [this, shot] {
        shot->fn = nullptr;
        _freeOneShots.push_back(shot);
    };
    try {
        shot->process();
    } catch (...) {
        recycle();
        throw;
    }
    recycle();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events) {
        if (!runOne()) {
            // Drained: every slot reserved so far has been passed.
            pass(Slot{MAX_TICK, std::numeric_limits<int>::max(),
                      std::numeric_limits<std::uint64_t>::max()});
            break;
        }
        ++n;
    }
    return n;
}

void
EventQueue::runUntil(Tick when)
{
    for (;;) {
        skipDead();
        if (_queue.empty() || _queue.top().at.when > when)
            break;
        runOne();
    }
    if (when > _curTick)
        _curTick = when;
    pass(Slot{when, std::numeric_limits<int>::max(),
              std::numeric_limits<std::uint64_t>::max()});
}

} // namespace shrimp
