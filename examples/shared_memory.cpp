/**
 * @file
 * Shared memory over the DSM service: two processes on different
 * nodes attach the same demand-paged shared window and communicate
 * through ordinary loads and stores -- no explicit mappings, no
 * message sends, no write-partitioning discipline. Every page fault
 * becomes a VMMC transaction (DSM_GET to the page's home, a
 * deliberate-DMA page transfer, map-and-resume), and the directory's
 * invalidations keep the copies coherent where the old PRAM scheme
 * relied on the application never writing the same word twice.
 *
 * Process A fills the even words of a shared array, process B the odd
 * words; each publishes a flag, spins on the other's flag (the spin
 * read re-faults whenever the writer's upgrade invalidates the local
 * copy), then sums the words the peer wrote. Because all of it lives
 * in one shared page, the run exercises the whole protocol: read
 * faults, exclusive upgrades, sharer shootdowns and owner recalls.
 *
 * Run: ./shared_memory
 */

#include <cstdio>

#include "core/system.hh"
#include "os/dsm.hh"

using namespace shrimp;

namespace
{

constexpr unsigned kWords = 32;     // shared array length

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

    Process *a = sys.kernel(0).createProcess("A");
    Process *b = sys.kernel(1).createProcess("B");
    sys.kernel(0).dsm()->attach(*a);
    sys.kernel(1).dsm()->attach(*b);

    // Both processes see the shared window at the same address; page
    // 0 of it holds the whole workload. Layout: words 0..kWords-1 =
    // data; word kWords / kWords+1 = A's / B's done flag; +2 / +3 =
    // the result sums.
    const Addr base = Dsm::baseVaddr;
    const Addr flag_a_off = 4 * kWords;
    const Addr flag_b_off = 4 * kWords + 4;
    const Addr sum_a_off = 4 * kWords + 8;
    const Addr sum_b_off = 4 * kWords + 12;

    auto make_writer = [&](bool even, Addr my_flag, Addr peer_flag,
                           Addr my_sum) {
        Program p(even ? "A" : "B");
        p.movi(R1, base);
        // Phase 1: write my half of the shared array. The first store
        // write-faults the page in; later stores hit until the peer
        // steals it back.
        for (unsigned j = even ? 0 : 1; j < kWords; j += 2)
            p.sti(R1, 4 * j, 1000 + j, 4);
        // Publish "done" and wait for the peer's flag. The spin read
        // re-faults each time the peer's writes invalidate our copy.
        p.sti(R1, my_flag, 1, 4);
        p.label("peer");
        p.ld(R3, R1, peer_flag, 4);
        p.cmpi(R3, 1);
        p.jnz("peer");
        // Phase 2: sum the words the peer wrote. The page arrives
        // with the peer's stores already merged -- the directory kept
        // one coherent copy, no partitioning rules needed.
        p.movi(R4, 0);
        for (unsigned j = even ? 1 : 0; j < kWords; j += 2) {
            p.ld(R3, R1, 4 * j, 4);
            p.add(R4, R3);
        }
        p.st(R1, my_sum, R4, 4);
        p.halt();
        p.finalize();
        return p;
    };

    Program pa = make_writer(true, flag_a_off, flag_b_off, sum_a_off);
    Program pb = make_writer(false, flag_b_off, flag_a_off, sum_b_off);
    sys.kernel(0).loadAndReady(*a,
                               std::make_shared<Program>(std::move(pa)));
    sys.kernel(1).loadAndReady(*b,
                               std::make_shared<Program>(std::move(pb)));

    sys.startAll();
    bool done = sys.runUntilAllExited(2 * ONE_SEC);
    sys.runFor(ONE_MS);

    std::uint64_t expect_a = 0, expect_b = 0;   // peer-written sums
    for (unsigned j = 1; j < kWords; j += 2)
        expect_a += 1000 + j;   // A sums B's odd words
    for (unsigned j = 0; j < kWords; j += 2)
        expect_b += 1000 + j;   // B sums A's even words

    std::uint32_t sum_a = peekDsm(sys, 0, sum_a_off);
    std::uint32_t sum_b = peekDsm(sys, 0, sum_b_off);
    stats::Snapshot snap = sys.snapshot();
    std::uint64_t faults = snap.at("node0.kernel.dsm.dsmFaults") +
                           snap.at("node1.kernel.dsm.dsmFaults");

    std::printf("coherent shared memory over the DSM window\n");
    std::printf("  A's sum of B's words: %llu (expect %llu)\n",
                (unsigned long long)sum_a,
                (unsigned long long)expect_a);
    std::printf("  B's sum of A's words: %llu (expect %llu)\n",
                (unsigned long long)sum_b,
                (unsigned long long)expect_b);
    std::printf("  page faults serviced over VMMC: %llu\n",
                (unsigned long long)faults);

    bool ok = done && sum_a == expect_a && sum_b == expect_b &&
              faults > 0;
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
