/**
 * @file
 * The Table 1 harness: builds, runs and measures each message-passing
 * primitive of the paper's Section 5.2 on a two-node system, counting
 * the instructions executed in the SEND/RECV measurement regions
 * exactly as the paper counts software overhead (per-byte data
 * movement is attributed to a separate DATA region and excluded).
 *
 * Shared between the unit tests (tests/table1_test.cpp), which assert
 * the paper's exact counts, and the bench harness
 * (bench/bench_table1_overheads.cpp), which prints the reproduced
 * table.
 */

#ifndef SHRIMP_CORE_TABLE1_HH
#define SHRIMP_CORE_TABLE1_HH

#include <cstdint>

#include "core/system.hh"

namespace shrimp
{
namespace table1
{

/** Measured cost of one primitive, per message, in instructions. */
struct PrimitiveCost
{
    double sendPerMsg = 0.0;    //!< SEND-region instructions
    double recvPerMsg = 0.0;    //!< RECV-region instructions
    double dataPerMsg = 0.0;    //!< excluded per-byte instructions
    std::uint64_t kernelSendPerMsg = 0;  //!< kernel instrs (baseline)
    std::uint64_t kernelRecvPerMsg = 0;
    bool dataOk = false;        //!< payload verified at the receiver
};

/** T1.1 / T1.2: single buffering, optionally with receive-side copy. */
PrimitiveCost runSingleBuffering(bool with_copy,
                                 std::uint64_t messages = 4,
                                 unsigned payload_words = 8);

/** T1.3-T1.5: double buffering, @p case_no in {1, 2, 3}. */
PrimitiveCost runDoubleBuffering(int case_no,
                                 std::uint64_t messages = 6,
                                 unsigned payload_words = 8);

/** T1.6: deliberate-update transfer (init 13 + completion check 2). */
PrimitiveCost runDeliberateUpdate(unsigned payload_words = 64);

/** T1.7: user-level NX/2 csend/crecv over mapped rings. */
PrimitiveCost runUserNx2(std::uint64_t messages = 4,
                         unsigned payload_words = 16);

/** C1: the kernel-level NX/2 baseline (costs land in kernel*). */
PrimitiveCost runKernelNx2(std::uint64_t messages = 4,
                           unsigned payload_words = 16);

} // namespace table1
} // namespace shrimp

#endif // SHRIMP_CORE_TABLE1_HH
