#include "sim/logging.hh"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace shrimp
{

namespace logging_detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    // Throwing (rather than abort()) lets death-style unit tests observe
    // panics; nothing in the simulator catches this type.
    throw std::logic_error("shrimp panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    throw std::runtime_error("shrimp fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cout << "info: " << msg << std::endl;
}

} // namespace logging_detail

} // namespace shrimp
