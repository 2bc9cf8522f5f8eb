/**
 * @file
 * Structured simulation tracing.
 *
 * A Tracer records timestamped events -- synchronous spans (begin/end
 * or complete), instants, and async "flow" spans keyed by an id that
 * travels with a packet -- and exports them as Chrome trace-event JSON
 * (the format Perfetto and chrome://tracing load directly).
 *
 * Overhead policy: tracing is off unless a Tracer is installed on the
 * event queue (SystemConfig::traceEnabled). Instrumentation sites pay
 * one pointer load + branch when tracing is off; the simulation's
 * timing is never affected either way, because recording only copies
 * data -- it schedules nothing and charges no simulated cost.
 *
 * Mapping to the trace-event format:
 *  - each distinct component path becomes one "thread" (tid) inside a
 *    single "process" (pid 0), named via metadata events;
 *  - ticks (1 ps) are exported as fractional microseconds, so one tick
 *    equals 1e-6 us and no precision is lost at %.6f;
 *  - flow spans use the async-nestable phases b/n/e with the packet's
 *    trace id, so a packet's whole lifecycle lines up in one track.
 */

#ifndef SHRIMP_SIM_TRACE_HH
#define SHRIMP_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace shrimp
{
namespace trace
{

/** One key/value argument attached to an event. */
struct Arg
{
    std::string key;
    std::string value;  //!< pre-rendered; quoted iff !numeric
    bool numeric = false;
};

inline Arg
arg(std::string key, std::uint64_t v)
{
    return Arg{std::move(key), std::to_string(v), true};
}

inline Arg
arg(std::string key, std::int64_t v)
{
    return Arg{std::move(key), std::to_string(v), true};
}

inline Arg
arg(std::string key, unsigned v)
{
    return arg(std::move(key), static_cast<std::uint64_t>(v));
}

inline Arg
arg(std::string key, std::string v)
{
    return Arg{std::move(key), std::move(v), false};
}

inline Arg
arg(std::string key, const char *v)
{
    return Arg{std::move(key), std::string(v), false};
}

/** Records events and exports Chrome trace-event JSON. */
class Tracer
{
  public:
    Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Fresh id for a flow (packet lifecycle); never returns 0. */
    std::uint64_t newFlowId() { return _nextFlow++; }

    /** Point event on @p who's track. */
    void
    instant(Tick when, const std::string &who, const char *cat,
            const char *name, std::vector<Arg> args = {})
    {
        record('i', when, 0, 0, who, cat, name, std::move(args));
    }

    /** Open a synchronous span on @p who's track (stack discipline). */
    void
    begin(Tick when, const std::string &who, const char *cat,
          const char *name, std::vector<Arg> args = {})
    {
        record('B', when, 0, 0, who, cat, name, std::move(args));
    }

    /** Close the innermost open span on @p who's track. */
    void
    end(Tick when, const std::string &who, const char *cat,
        const char *name, std::vector<Arg> args = {})
    {
        record('E', when, 0, 0, who, cat, name, std::move(args));
    }

    /** A span known only once finished (e.g. a scheduled completion). */
    void
    complete(Tick start, Tick finish, const std::string &who,
             const char *cat, const char *name,
             std::vector<Arg> args = {})
    {
        record('X', start, finish - start, 0, who, cat, name,
               std::move(args));
    }

    /** Open an async flow span keyed by @p id (a newFlowId() value). */
    void
    flowBegin(Tick when, const std::string &who, const char *cat,
              const char *name, std::uint64_t id,
              std::vector<Arg> args = {})
    {
        record('b', when, 0, id, who, cat, name, std::move(args));
    }

    /** Mark a stage of flow @p id. */
    void
    flowStep(Tick when, const std::string &who, const char *cat,
             const char *name, std::uint64_t id,
             std::vector<Arg> args = {})
    {
        record('n', when, 0, id, who, cat, name, std::move(args));
    }

    /** Close flow @p id. */
    void
    flowEnd(Tick when, const std::string &who, const char *cat,
            const char *name, std::uint64_t id,
            std::vector<Arg> args = {})
    {
        record('e', when, 0, id, who, cat, name, std::move(args));
    }

    /** Write the whole trace as Chrome trace-event JSON. */
    void exportJson(std::ostream &os) const;

    /** exportJson() to a file; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        char ph;
        Tick ts;
        Tick dur;           //!< X events only
        std::uint64_t id;   //!< b/n/e events only
        int tid;
        const char *cat;
        const char *name;
        std::vector<Arg> args;
    };

    void record(char ph, Tick ts, Tick dur, std::uint64_t id,
                const std::string &who, const char *cat,
                const char *name, std::vector<Arg> &&args);

    int tidFor(const std::string &who);

    std::vector<Event> _events;
    std::unordered_map<std::string, int> _tidOf;
    std::vector<std::string> _tidName;
    std::uint64_t _nextFlow = 1;
};

} // namespace trace
} // namespace shrimp

#endif // SHRIMP_SIM_TRACE_HH
