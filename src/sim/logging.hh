/**
 * @file
 * Error reporting.
 *
 * Follows the gem5 convention: panic() for internal simulator bugs
 * (aborts), fatal() for user/configuration errors (exits), warn() and
 * inform() for status. Event logging is the tracer's job (sim/trace.hh):
 * it is the one event log, and costs one pointer test when off.
 */

#ifndef SHRIMP_SIM_LOGGING_HH
#define SHRIMP_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace shrimp
{

namespace logging_detail
{

/** Fold arbitrary arguments into a string via operator<<. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace logging_detail

} // namespace shrimp

/** Internal simulator invariant violated: print and abort. */
#define SHRIMP_PANIC(...)                                                   \
    ::shrimp::logging_detail::panicImpl(                                    \
        __FILE__, __LINE__, ::shrimp::logging_detail::format(__VA_ARGS__))

/** Unrecoverable user/configuration error: print and exit(1). */
#define SHRIMP_FATAL(...)                                                   \
    ::shrimp::logging_detail::fatalImpl(                                    \
        __FILE__, __LINE__, ::shrimp::logging_detail::format(__VA_ARGS__))

/** Something suspicious but survivable. */
#define SHRIMP_WARN(...)                                                    \
    ::shrimp::logging_detail::warnImpl(                                     \
        ::shrimp::logging_detail::format(__VA_ARGS__))

/** Normal operational status message. */
#define SHRIMP_INFORM(...)                                                  \
    ::shrimp::logging_detail::informImpl(                                   \
        ::shrimp::logging_detail::format(__VA_ARGS__))

/** Assert an internal invariant with a formatted message. */
#define SHRIMP_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            SHRIMP_PANIC("assertion failed: " #cond " ", __VA_ARGS__);      \
        }                                                                   \
    } while (0)

#endif // SHRIMP_SIM_LOGGING_HH
