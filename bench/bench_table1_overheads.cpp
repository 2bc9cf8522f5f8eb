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
 * the paper excludes; data_ok confirms payload integrity. Claims
 * T1.1-T1.7 (bench/shrimp_claims.cc) hold them to the paper.
 */

#include "core/table1.hh"
#include "experiments.hh"

namespace shrimp
{

void
experiments::table1Overheads(claims::Rows &rows)
{
    auto add = [&rows](const char *name, const table1::PrimitiveCost &c) {
        rows.push_back({name,
                        {{"send_instr", c.sendPerMsg},
                         {"recv_instr", c.recvPerMsg},
                         {"total_instr", c.sendPerMsg + c.recvPerMsg},
                         {"data_instr", c.dataPerMsg},
                         {"data_ok", c.dataOk ? 1.0 : 0.0}}});
    };
    add("SingleBuffering", table1::runSingleBuffering(false));
    add("SingleBufferingWithCopy", table1::runSingleBuffering(true));
    add("DoubleBuffering/1", table1::runDoubleBuffering(1));
    add("DoubleBuffering/2", table1::runDoubleBuffering(2));
    add("DoubleBuffering/3", table1::runDoubleBuffering(3));
    add("DeliberateUpdateTransfer", table1::runDeliberateUpdate());
    add("UserLevelCsendCrecv", table1::runUserNx2());
}

} // namespace shrimp
