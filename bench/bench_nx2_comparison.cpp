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

#include <algorithm>
#include <string_view>

#include "core/table1.hh"
#include "experiments.hh"

namespace shrimp
{

void
experiments::nx2Comparison(claims::Rows &rows)
{
    // User level; overheads exclude the per-byte copy.
    for (unsigned words : {16u, 64u}) {
        costRow(rows, "UserLevelNx2/" + std::to_string(words),
                table1::runUserNx2(4, words));
    }
    // Kernel-level baseline: 222/261 fast paths + syscall + copies +
    // DMA interrupts.
    for (unsigned words : {16u, 64u}) {
        costRow(rows, "KernelNx2Baseline/" + std::to_string(words),
                table1::runKernelNx2(4, words));
    }
    // The ratio compares the two 16-word rows above.
    auto metric = [&rows](std::string_view row, const char *name) {
        return std::find_if(rows.begin(), rows.end(),
                            [row](const claims::Row &r) {
                                return r.name == row;
                            })
            ->metrics.at(name);
    };
    double user = metric("UserLevelNx2/16", "total_instr");
    double kernel = metric("KernelNx2Baseline/16", "kernel_send_instr") +
                    metric("KernelNx2Baseline/16", "kernel_recv_instr");
    claims::Metrics &m = claims::newRow(rows, "OverheadRatio");
    m["user_instr"] = user;
    m["kernel_instr"] = kernel;
    m["ratio"] = kernel / user;
}

} // namespace shrimp
