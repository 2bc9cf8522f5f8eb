/**
 * @file
 * Reproduces the paper's peak-bandwidth results (Section 5.1):
 *
 *  H3: deliberate-update bandwidth on the prototype is limited by
 *      the receiving EISA bus's 33 MB/s burst mode; "all other parts
 *      of the datapath have at least twice this bandwidth".
 *  H4: the next-generation datapath (Xpress-direct) reaches about
 *      70 MB/s.
 *
 * The transfer-size sweep shows the bandwidth ramp: small transfers
 * pay fixed per-transfer costs (command issue, DMA startup, EISA
 * arbitration), large ones approach the bus limit.
 *
 * Metric: sim_MBps is payload megabytes per simulated second from
 * first packet injection to last byte in destination memory.
 */

#include "bench_util.hh"
#include "experiments.hh"

namespace shrimp
{

void
experiments::bandwidth(claims::Rows &rows)
{
    for (bool next_gen : {false, true}) {
        const char *name = next_gen ? "DeliberateBandwidth_NextGen/"
                                    : "DeliberateBandwidth_EisaPrototype/";
        for (Addr kb : {4, 16, 64, 256}) {
            bench_util::measureDeliberateBandwidth(
                claims::newRow(rows, name + std::to_string(kb)), next_gen,
                kb * 1024);
        }
    }
}

} // namespace shrimp
