/**
 * @file
 * Reproduces the paper's hardware latency results (Section 5.1):
 *
 *  H1: single-write automatic-update latency on the EISA-based
 *      prototype, 16-node system: "slightly less than 2 us".
 *  H2: next-generation datapath (Xpress-direct receive): "< 1 us".
 *
 * Also sweeps mesh hop distance to show the per-hop contribution is
 * small relative to the I/O-bus cost -- the reason the paper can
 * quote one latency number for a 16-node machine.
 *
 * Metric: sim_latency_us is the simulated store-to-remote-memory
 * time of a single 4-byte automatic update.
 */

#include "bench_util.hh"
#include "experiments.hh"

namespace shrimp
{

void
experiments::latency(claims::Rows &rows)
{
    for (bool next_gen : {false, true}) {
        const char *name = next_gen ? "SingleWriteLatency_NextGen/"
                                    : "SingleWriteLatency_EisaPrototype/";
        for (unsigned hops = 1; hops <= 6; ++hops) {
            bench_util::measureSingleWriteLatency(
                claims::newRow(rows, name + std::to_string(hops)),
                next_gen, hops);
        }
    }
}

} // namespace shrimp
