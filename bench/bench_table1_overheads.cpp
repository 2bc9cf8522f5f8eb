/**
 * @file
 * Reproduces the paper's Table 1: software overhead of message
 * passing primitives, in CPU instructions, split source+destination.
 *
 *   | primitive                  | paper      | this harness      |
 *   |----------------------------|------------|-------------------|
 *   | single buffering           |  9 (4+5)   | send/recv counters|
 *   | single buffering + copy    | 21 (4+17)  |                   |
 *   | double buffering (case 1)  |  2 (1+1)   |                   |
 *   | double buffering (case 2)  |  8 (3+5)   |                   |
 *   | double buffering (case 3)  | 10 (5+5)   |                   |
 *   | deliberate-update transfer | 15 (15+0)  |                   |
 *   | csend and crecv            | 151 (73+78)| leaner; see notes |
 *
 * Metrics: send_instr / recv_instr are the per-message instruction
 * counts of the measured fast paths; data_instr is the per-byte cost
 * the paper excludes; kernel_send_instr / kernel_recv_instr are the
 * kernel's instructions per message (the NX/2 baseline's cost);
 * data_ok confirms payload integrity. Claims T1.1-T1.7
 * (bench/shrimp_claims.cc) hold them to the paper.
 */

#include "core/table1.hh"
#include "experiments.hh"

namespace shrimp
{

void
experiments::costRow(claims::Rows &rows, std::string name,
                     const table1::PrimitiveCost &cost)
{
    claims::Metrics &m = claims::newRow(rows, std::move(name));
    m["send_instr"] = cost.sendPerMsg;
    m["recv_instr"] = cost.recvPerMsg;
    m["total_instr"] = cost.sendPerMsg + cost.recvPerMsg;
    m["data_instr"] = cost.dataPerMsg;
    m["kernel_send_instr"] = cost.kernelSendPerMsg;
    m["kernel_recv_instr"] = cost.kernelRecvPerMsg;
    m["data_ok"] = cost.dataOk;
}

void
experiments::table1Overheads(claims::Rows &rows)
{
    costRow(rows, "SingleBuffering", table1::runSingleBuffering(false));
    costRow(rows, "SingleBufferingWithCopy",
            table1::runSingleBuffering(true));
    costRow(rows, "DoubleBuffering/1", table1::runDoubleBuffering(1));
    costRow(rows, "DoubleBuffering/2", table1::runDoubleBuffering(2));
    costRow(rows, "DoubleBuffering/3", table1::runDoubleBuffering(3));
    costRow(rows, "DeliberateUpdateTransfer",
            table1::runDeliberateUpdate());
    costRow(rows, "UserLevelCsendCrecv", table1::runUserNx2());
}

} // namespace shrimp
