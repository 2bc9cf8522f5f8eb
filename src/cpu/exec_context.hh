/**
 * @file
 * ExecContext: the architectural state of one software process --
 * registers, flags, pc, its program, its address space -- plus the
 * instruction-count instrumentation used to reproduce the paper's
 * Table 1 (software overhead measured in instructions).
 */

#ifndef SHRIMP_CPU_EXEC_CONTEXT_HH
#define SHRIMP_CPU_EXEC_CONTEXT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "cpu/program.hh"
#include "sim/types.hh"
#include "vm/address_space.hh"

namespace shrimp
{

/**
 * Measurement regions. MARK instructions switch the active region;
 * every subsequently executed instruction is attributed to it. The
 * Table 1 harness uses SEND/RECV for fast-path overhead and DATA for
 * the per-byte costs the paper explicitly excludes.
 */
namespace region
{
constexpr std::uint8_t NONE = 0;    //!< untracked (setup, loop control)
constexpr std::uint8_t SEND = 1;    //!< sender-side overhead
constexpr std::uint8_t RECV = 2;    //!< receiver-side overhead
constexpr std::uint8_t DATA = 3;    //!< per-byte data movement
constexpr std::uint8_t APP = 4;     //!< application compute
constexpr std::uint8_t NUM = 16;
} // namespace region

/** Architectural and instrumentation state of one process. */
struct ExecContext
{
    std::string name;
    Pid pid = 0;

    std::array<std::uint64_t, NUM_REGS> regs{};
    bool zf = false;            //!< zero/equal flag
    bool lf = false;            //!< less-than (unsigned) flag
    std::uint32_t pc = 0;
    bool halted = false;

    std::shared_ptr<const Program> program;
    AddressSpace *space = nullptr;

    // ---- instrumentation ----
    std::uint8_t currentRegion = region::NONE;
    std::array<std::uint64_t, region::NUM> regionInstrs{};
    std::uint64_t totalInstrs = 0;
    std::uint64_t kernelInstrs = 0;     //!< charged by kernel services
    std::uint64_t faults = 0;
    std::uint64_t syscalls = 0;

    std::uint64_t
    regionCount(std::uint8_t r) const
    {
        return regionInstrs[r];
    }
};

} // namespace shrimp

#endif // SHRIMP_CPU_EXEC_CONTEXT_HH
