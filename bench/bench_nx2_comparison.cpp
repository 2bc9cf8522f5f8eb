/**
 * @file
 * Reproduces the paper's NX/2 comparison (Section 5.2 "NX/2
 * Primitives"): typed csend/crecv implemented at user level over the
 * virtual memory-mapped interface versus the traditional kernel-level
 * implementation (iPSC/2-style: system calls, kernel buffer copies,
 * DMA interrupts; 222/261-instruction kernel fast paths).
 *
 * The paper reports the SHRIMP user-level implementation at roughly
 * 1/4 of the kernel implementation's overhead; the `ratio` metric
 * reproduces that comparison on identical simulated hardware (claim
 * C1 in bench/shrimp_claims.cc).
 */

#include "core/table1.hh"
#include "experiments.hh"

namespace shrimp
{

void
experiments::nx2Comparison(claims::Rows &rows)
{
    // User level; overheads exclude the per-byte copy.
    for (unsigned words : {16u, 64u}) {
        table1::PrimitiveCost cost = table1::runUserNx2(4, words);
        rows.push_back({"UserLevelNx2/" + std::to_string(words),
                        {{"send_instr", cost.sendPerMsg},
                         {"recv_instr", cost.recvPerMsg},
                         {"total_instr", cost.sendPerMsg + cost.recvPerMsg},
                         {"data_ok", cost.dataOk ? 1.0 : 0.0}}});
    }
    // Kernel-level baseline: 222/261 fast paths + syscall + copies +
    // DMA interrupts.
    for (unsigned words : {16u, 64u}) {
        table1::PrimitiveCost cost = table1::runKernelNx2(4, words);
        rows.push_back(
            {"KernelNx2Baseline/" + std::to_string(words),
             {{"kernel_send_instr",
               static_cast<double>(cost.kernelSendPerMsg)},
              {"kernel_recv_instr",
               static_cast<double>(cost.kernelRecvPerMsg)},
              {"data_ok", cost.dataOk ? 1.0 : 0.0}}});
    }
    table1::PrimitiveCost user = table1::runUserNx2();
    table1::PrimitiveCost kernel = table1::runKernelNx2();
    double user_total = user.sendPerMsg + user.recvPerMsg;
    auto kernel_total = static_cast<double>(kernel.kernelSendPerMsg +
                                            kernel.kernelRecvPerMsg);
    rows.push_back({"OverheadRatio",
                    {{"user_instr", user_total},
                     {"kernel_instr", kernel_total},
                     {"ratio", kernel_total / user_total}}});
}

} // namespace shrimp
