/**
 * @file
 * Migratory counter over the DSM window: four nodes take strict turns
 * incrementing one shared counter, ordered by a ticket word on the
 * same page. Each turn the page write-migrates to the next node --
 * the previous owner is recalled through the home, its writeback
 * carries the counter, and the new owner gets an exclusive grant --
 * while the waiting nodes' ticket spins keep pulling read-shared
 * copies that the next increment invalidates again.
 *
 * This is the protocol's worst-case traffic pattern (every access a
 * coherence miss), and also its sharpest correctness probe: the final
 * counter equals nodes x rounds only if every writeback survived
 * every migration.
 *
 * Run: ./dsm_migratory
 */

#include <cstdio>

#include "core/system.hh"
#include "os/dsm.hh"

using namespace shrimp;

namespace
{

constexpr unsigned kRounds = 3;     // full ring laps

/** Read one word of a DSM page from any node holding a copy. */
std::uint32_t
peekDsm(ShrimpSystem &sys, std::uint32_t page, unsigned byte_off)
{
    for (NodeId id = 0; id < sys.numNodes(); ++id) {
        Dsm &d = *sys.kernel(id).dsm();
        if (d.localState(page) != DsmPageState::INVALID) {
            return static_cast<std::uint32_t>(sys.node(id).mem.readInt(
                pageBase(d.localFrame(page)) + byte_off, 4));
        }
    }
    return 0xdead'dead;
}

} // namespace

int
main()
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    cfg.dsm.enabled = true;
    cfg.dsm.numPages = 4;
    const unsigned n = cfg.numNodes();
    ShrimpSystem sys(cfg);

    // Page 0, word 0: the ticket (whose turn it is, monotonically
    // increasing). Word 1: the shared counter.
    const Addr base = Dsm::baseVaddr;
    const Addr ticket_off = 0;
    const Addr counter_off = 4;

    for (NodeId id = 0; id < n; ++id) {
        Process *p = sys.kernel(id).createProcess(
            "inc" + std::to_string(id));
        sys.kernel(id).dsm()->attach(*p);

        Program prog("inc" + std::to_string(id));
        prog.movi(R1, base);
        for (unsigned k = 0; k < kRounds; ++k) {
            const unsigned my_turn = k * n + id;
            // Spin until the ticket reaches my turn. The spin hits a
            // local read-shared copy until the current holder's
            // increment invalidates it; the re-fault fetches the new
            // ticket.
            prog.label("wait" + std::to_string(k));
            prog.ld(R2, R1, ticket_off, 4);
            prog.cmpi(R2, my_turn);
            prog.jnz("wait" + std::to_string(k));
            // My turn: bump the counter, pass the ticket on. The
            // first store write-faults the page here exclusively.
            prog.ld(R3, R1, counter_off, 4);
            prog.addi(R3, 1);
            prog.st(R1, counter_off, R3, 4);
            prog.sti(R1, ticket_off, my_turn + 1, 4);
        }
        prog.halt();
        prog.finalize();
        sys.kernel(id).loadAndReady(
            *p, std::make_shared<Program>(std::move(prog)));
    }

    sys.startAll();
    bool done = sys.runUntilAllExited(5 * ONE_SEC);
    sys.runFor(ONE_MS);

    const std::uint32_t expect = n * kRounds;
    std::uint32_t counter = peekDsm(sys, 0, counter_off);
    std::uint32_t ticket = peekDsm(sys, 0, ticket_off);

    // Machine-wide totals, summed across nodes by stat path.
    stats::Snapshot snap = sys.snapshot();
    std::uint64_t faults = snap.sum("node*.kernel.dsm.dsmFaults");
    std::uint64_t fetches = snap.sum("node*.kernel.dsm.dsmFetches");
    std::uint64_t invals = snap.sum("node*.kernel.dsm.dsmInvalidations");

    std::printf("migratory counter: %u nodes x %u laps over DSM\n", n,
                kRounds);
    std::printf("  counter: %u (expect %u), ticket: %u\n", counter,
                expect, ticket);
    std::printf("  faults: %llu  remote fetches: %llu  "
                "invalidations: %llu\n",
                (unsigned long long)faults,
                (unsigned long long)fetches,
                (unsigned long long)invals);
    bool ok = done && counter == expect && ticket == expect &&
              fetches > 0;
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
