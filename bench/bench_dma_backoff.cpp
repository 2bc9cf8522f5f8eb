/**
 * @file
 * Ablation A6: DMA-claim backoff (paper Section 4.3).
 *
 * "When the DMA engine is busy, the network interface reacts to a
 * read cycle by returning the number of words remaining ... This
 * feature can be used to implement backoff strategies to optimize the
 * use of the memory bus for the DMA transfer."
 *
 * Two processes on one node contend for the single DMA engine, each
 * pushing full-page transfers through a small outgoing FIFO (so the
 * engine stays busy for the whole EISA-limited drain). The naive
 * claim loop hammers locked CMPXCHG cycles; the backoff loop reads
 * the remaining-words status and spins unlocked. The rows report
 * locked bus operations (each an exclusive bus tenure stealing
 * bandwidth from the DMA itself) and completion time.
 */

#include "bench_util.hh"
#include "experiments.hh"

namespace shrimp
{
namespace
{

void
runContention(claims::Metrics &m, bool with_backoff, int pages_each)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.kernel.quantum = 20 * ONE_US;
    cfg.ni.outFifo.capacityBytes = 2048;
    cfg.ni.outFifo.highThresholdBytes = 2048;
    cfg.ni.outFifo.lowThresholdBytes = 512;
    ShrimpSystem sys(cfg);

    Process *recv = sys.kernel(1).createProcess("recv");
    Addr dst = recv->allocate(2);

    for (int i = 0; i < 2; ++i) {
        Process *p =
            sys.kernel(0).createProcess("s" + std::to_string(i));
        Addr src = p->allocate(1);
        sys.kernel(0).mapDirect(*p, src, 1, sys.kernel(1), *recv,
                                dst + i * PAGE_SIZE,
                                UpdateMode::DELIBERATE);
        Addr cmd = sys.kernel(0).mapCommandPages(*p, src, 1);
        std::int64_t delta = static_cast<std::int64_t>(cmd) -
                             static_cast<std::int64_t>(src);

        Program prog(p->name());
        prog.movi(R6, 0);
        prog.label("page");
        prog.addi(R6, 1);
        prog.movi(R3, src);
        prog.movi(R1, PAGE_SIZE);
        if (with_backoff) {
            msg::emitDeliberateSendBackoff(prog, delta, "bo");
        } else {
            msg::emitDeliberateSendSingle(prog, delta, "sg", "multi");
        }
        prog.label("wait");
        msg::emitDeliberateCheck(prog);
        prog.jnz("wait");
        prog.cmpi(R6, pages_each);
        prog.jl("page");
        prog.halt();
        if (!with_backoff) {
            prog.label("multi");
            prog.halt();
        }
        prog.finalize();
        sys.kernel(0).loadAndReady(
            *p, std::make_shared<Program>(std::move(prog)));
    }
    Program pr("recv");
    pr.halt();
    bench_util::load(sys.kernel(1), *recv, std::move(pr));

    sys.startAll();
    sys.runUntilAllExited(30 * ONE_SEC, 2'000'000'000);
    sys.runFor(50 * ONE_MS);

    stats::Snapshot snap = sys.snapshot();
    m["locked_bus_ops"] = snap.at("node0.cpu.lockedOps");
    m["sim_us_total"] = static_cast<double>(sys.curTick()) / ONE_US;
    m["transfers"] = snap.at("node0.ni.dma.transfers");
}

} // namespace

void
experiments::dmaBackoff(claims::Rows &rows)
{
    // Naive: locked CMPXCHG hammering while the engine drains.
    // Backoff: retry delay proportional to the words remaining.
    for (bool with_backoff : {false, true}) {
        const char *name = with_backoff ? "DmaClaim_ProportionalBackoff/"
                                        : "DmaClaim_NaiveSpin/";
        for (int pages : {2, 4}) {
            runContention(claims::newRow(rows, name + std::to_string(pages)),
                          with_backoff, pages);
        }
    }
}

} // namespace shrimp
