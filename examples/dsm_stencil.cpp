/**
 * @file
 * Fault-driven stencil over the DSM window: a 1-D odd-even (red-black)
 * relaxation where two nodes co-operate on one shared array through
 * nothing but loads and stores. Node A updates the even interior cells
 * from their neighbours, node B the odd ones; a per-round flag
 * handshake (also in shared memory) alternates the half-sweeps.
 *
 * Every cross-node access is a page fault the DSM service turns into
 * VMMC traffic: A's updates write-fault the array page away from B,
 * B's flag spin read-faults it back read-shared, and so on. The final
 * array must match a host-side replay of the same relaxation -- a
 * wrong or lost writeback anywhere in the protocol shows up as a
 * cell mismatch.
 *
 * Run: ./dsm_stencil
 */

#include <cstdio>

#include "core/system.hh"
#include "os/dsm.hh"

using namespace shrimp;

namespace
{

constexpr unsigned kCells = 16;     // 1-D grid, ends held fixed
constexpr unsigned kRounds = 3;

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
    cfg.meshHeight = 1;
    cfg.dsm.enabled = true;
    cfg.dsm.numPages = 4;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("even");
    Process *b = sys.kernel(1).createProcess("odd");
    sys.kernel(0).dsm()->attach(*a);
    sys.kernel(1).dsm()->attach(*b);

    const Addr base = cfg.dsm.baseVaddr;
    const Addr flag_a_off = 4 * kCells;       // A's completed round
    const Addr flag_b_off = 4 * kCells + 4;   // B's completed round

    // Node A: initialise the grid, then each round relax the even
    // interior cells, publish the round number and wait for B's
    // half-sweep before continuing.
    Program pa("even-sweep");
    pa.movi(R1, base);
    for (unsigned j = 0; j < kCells; ++j)
        pa.sti(R1, 4 * j, j, 4);
    for (unsigned r = 1; r <= kRounds; ++r) {
        for (unsigned j = 2; j + 1 < kCells; j += 2) {
            pa.ld(R2, R1, 4 * (j - 1), 4);
            pa.ld(R3, R1, 4 * (j + 1), 4);
            pa.add(R2, R3);
            pa.st(R1, 4 * j, R2, 4);
        }
        pa.sti(R1, flag_a_off, r, 4);
        pa.label("waitB" + std::to_string(r));
        pa.ld(R2, R1, flag_b_off, 4);
        pa.cmpi(R2, r);
        pa.jnz("waitB" + std::to_string(r));
    }
    pa.halt();
    pa.finalize();

    // Node B: wait for A's half-sweep, relax the odd interior cells
    // (Gauss-Seidel: it sees A's fresh values), publish.
    Program pb("odd-sweep");
    pb.movi(R1, base);
    for (unsigned r = 1; r <= kRounds; ++r) {
        pb.label("waitA" + std::to_string(r));
        pb.ld(R2, R1, flag_a_off, 4);
        pb.cmpi(R2, r);
        pb.jnz("waitA" + std::to_string(r));
        for (unsigned j = 1; j + 1 < kCells; j += 2) {
            pb.ld(R2, R1, 4 * (j - 1), 4);
            pb.ld(R3, R1, 4 * (j + 1), 4);
            pb.add(R2, R3);
            pb.st(R1, 4 * j, R2, 4);
        }
        pb.sti(R1, flag_b_off, r, 4);
    }
    pb.halt();
    pb.finalize();

    sys.kernel(0).loadAndReady(*a,
                               std::make_shared<Program>(std::move(pa)));
    sys.kernel(1).loadAndReady(*b,
                               std::make_shared<Program>(std::move(pb)));
    sys.startAll();
    bool done = sys.runUntilAllExited(5 * ONE_SEC);
    sys.runFor(ONE_MS);

    // Host-side replay of the same relaxation.
    std::uint32_t model[kCells];
    for (unsigned j = 0; j < kCells; ++j)
        model[j] = j;
    for (unsigned r = 0; r < kRounds; ++r) {
        for (unsigned j = 2; j + 1 < kCells; j += 2)
            model[j] = model[j - 1] + model[j + 1];
        for (unsigned j = 1; j + 1 < kCells; j += 2)
            model[j] = model[j - 1] + model[j + 1];
    }

    unsigned mismatches = 0;
    for (unsigned j = 0; j < kCells; ++j) {
        std::uint32_t got = peekDsm(sys, 0, 4 * j);
        if (got != model[j]) {
            std::printf("  cell[%u] = %u, expected %u\n", j, got,
                        model[j]);
            ++mismatches;
        }
    }

    // Machine-wide totals, summed across nodes by stat path.
    stats::Snapshot snap = sys.snapshot();
    std::uint64_t faults = snap.sum("node*.kernel.dsm.dsmFaults");
    std::uint64_t invals = snap.sum("node*.kernel.dsm.dsmInvalidations");

    std::printf("odd-even relaxation, %u cells x %u rounds over DSM\n",
                kCells, kRounds);
    std::printf("  faults: %llu  invalidations: %llu\n",
                (unsigned long long)faults, (unsigned long long)invals);
    bool ok = done && mismatches == 0 && faults > 0;
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
