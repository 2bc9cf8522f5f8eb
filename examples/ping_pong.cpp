/**
 * @file
 * Ping-pong: round-trip latency between two nodes using the
 * single-buffering primitive in both directions (paper Section 5.2,
 * Figure 5). Demonstrates that after map(), each message costs a
 * handful of user instructions and the wire latency only.
 *
 * Prints per-round round-trip times and the one-way latency estimate,
 * on both the EISA prototype datapath and the next-generation
 * Xpress-direct datapath (Section 5.1: <2 us and <1 us respectively).
 *
 * Run: ./ping_pong
 */

#include <cstdio>

#include "core/system.hh"
#include "msg/single_buffer.hh"

using namespace shrimp;

namespace
{

struct Result
{
    double rttUs;
    bool ok;
};

Result
runPingPong(bool next_gen, int rounds)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.nextGenDatapath = next_gen;
    ShrimpSystem sys(cfg);

    Process *ping = sys.kernel(0).createProcess("ping");
    Process *pong = sys.kernel(1).createProcess("pong");

    // One flag word each way (bidirectional automatic update).
    Addr flag0 = ping->allocate(1);     // written by ping at offset 0,
    Addr flag1 = pong->allocate(1);     // by pong at offset 4
    sys.kernel(0).mapDirect(*ping, flag0, 1, sys.kernel(1), *pong,
                            flag1, UpdateMode::AUTO_SINGLE);
    sys.kernel(1).mapDirect(*pong, flag1, 1, sys.kernel(0), *ping,
                            flag0, UpdateMode::AUTO_SINGLE);

    // Ping: send round number, wait for the echo.
    Program pa("ping");
    pa.movi(R6, flag0);
    pa.movi(R5, 0);
    pa.label("round");
    pa.addi(R5, 1);
    pa.st(R6, 0, R5, 4);        // ping!
    pa.label("echo");
    pa.ld(R1, R6, 4, 4);        // wait for pong's echo
    pa.cmp(R1, R5);
    pa.jl("echo");
    pa.cmpi(R5, static_cast<std::int64_t>(rounds));
    pa.jl("round");
    pa.halt();
    pa.finalize();
    sys.kernel(0).loadAndReady(ping[0],
                               std::make_shared<Program>(std::move(pa)));

    // Pong: echo every round number back.
    Program pb("pong");
    pb.movi(R6, flag1);
    pb.movi(R5, 0);
    pb.label("round");
    pb.addi(R5, 1);
    pb.label("wait");
    pb.ld(R1, R6, 0, 4);
    pb.cmp(R1, R5);
    pb.jl("wait");
    pb.st(R6, 4, R5, 4);        // pong!
    pb.cmpi(R5, static_cast<std::int64_t>(rounds));
    pb.jl("round");
    pb.halt();
    pb.finalize();
    sys.kernel(1).loadAndReady(pong[0],
                               std::make_shared<Program>(std::move(pb)));

    sys.startAll();
    bool done = sys.runUntilAllExited();
    double total_us = static_cast<double>(sys.curTick()) / ONE_US;
    return Result{total_us / rounds, done};
}

} // namespace

int
main()
{
    constexpr int kRounds = 50;
    Result proto = runPingPong(false, kRounds);
    Result nextgen = runPingPong(true, kRounds);

    std::printf("single-buffered ping-pong, %d rounds\n", kRounds);
    std::printf("  %-28s rtt %7.3f us   one-way ~%.3f us\n",
                "EISA prototype datapath:", proto.rttUs,
                proto.rttUs / 2);
    std::printf("  %-28s rtt %7.3f us   one-way ~%.3f us\n",
                "next-gen (Xpress) datapath:", nextgen.rttUs,
                nextgen.rttUs / 2);
    std::printf("paper: <2 us prototype, <1 us next-generation\n");

    bool ok = proto.ok && nextgen.ok && proto.rttUs / 2 < 2.0 &&
              nextgen.rttUs / 2 < 1.0 &&
              nextgen.rttUs < proto.rttUs;
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
