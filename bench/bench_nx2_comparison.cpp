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
#include "sim/logging.hh"

namespace shrimp
{

void
experiments::nx2Comparison(claims::Rows &rows)
{
    // The metrics of a row appended earlier in this run.
    auto row = [&rows](std::string_view name) -> const claims::Metrics & {
        auto it = std::find_if(
            rows.begin(), rows.end(),
            [name](const claims::Row &r) { return r.name == name; });
        SHRIMP_ASSERT(it != rows.end(), "no row ", name, " to compare");
        return it->metrics;
    };

    // User level; overheads exclude the per-byte copy. The 16-word
    // run is Table 1's csend/crecv (runUserNx2's defaults), which
    // table1Overheads measured already: copy its row, not the run.
    claims::Metrics user16 = row("UserLevelCsendCrecv");
    claims::newRow(rows, "UserLevelNx2/16") = std::move(user16);
    costRow(rows, "UserLevelNx2/64", table1::runUserNx2(4, 64));
    // Kernel-level baseline: 222/261 fast paths + syscall + copies +
    // DMA interrupts.
    for (unsigned words : {16u, 64u}) {
        costRow(rows, "KernelNx2Baseline/" + std::to_string(words),
                table1::runKernelNx2(4, words));
    }
    // The ratio compares the two 16-word rows above.
    double user = row("UserLevelNx2/16").at("total_instr");
    double kernel = row("KernelNx2Baseline/16").at("kernel_send_instr") +
                    row("KernelNx2Baseline/16").at("kernel_recv_instr");
    claims::Metrics &m = claims::newRow(rows, "OverheadRatio");
    m["user_instr"] = user;
    m["kernel_instr"] = kernel;
    m["ratio"] = kernel / user;
}

} // namespace shrimp
