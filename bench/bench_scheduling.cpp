/**
 * @file
 * Ablation A5: scheduling policy versus communication performance.
 *
 * The paper argues (Sections 1-2) that SHRIMP supports *general*
 * multiprogramming -- unlike the CM-5, whose user-level communication
 * is only protected under strict gang scheduling -- and that having
 * hardware which works under any policy "allows us to support the
 * best scheduling algorithm, whatever it turns out to be".
 *
 * This experiment runs a latency-sensitive ping-pong job next to a
 * CPU-bound background job under three policies and reports the
 * ping-pong job's completion time. Correctness (all rounds complete,
 * no cross-job interference) holds everywhere; only performance
 * differs:
 *
 *  - alone: no background job (reference);
 *  - round-robin: each node timeshares independently, so a message
 *    can sit until the peer process is scheduled again (up to a
 *    quantum of added latency per round);
 *  - gang: the communicating pair runs simultaneously during its
 *    epochs but idles through the other gang's. On this two-node
 *    machine that costs as much as round-robin's waits: per round,
 *    gang is no faster than round-robin at any quantum measured.
 */

#include "bench_util.hh"
#include "core/gang.hh"
#include "experiments.hh"

namespace shrimp
{
namespace
{

enum class Policy
{
    ALONE,
    ROUND_ROBIN,
    GANG,
};

/** Run @p rounds ping-pong rounds under @p policy: sim_us_total until
 *  the job ends (-1 if it never does) and sim_us_per_round. */
void
runPingPongUnder(claims::Metrics &m, Policy policy, int rounds,
                 Tick quantum)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.kernel.quantum = quantum;
    ShrimpSystem sys(cfg);

    Process *ping = sys.kernel(0).createProcess("ping");
    Process *pong = sys.kernel(1).createProcess("pong");
    ping->gangId = 1;
    pong->gangId = 1;
    Addr flag0 = ping->allocate(1);
    Addr flag1 = pong->allocate(1);
    sys.kernel(0).mapDirect(*ping, flag0, 1, sys.kernel(1), *pong,
                            flag1, UpdateMode::AUTO_SINGLE);
    sys.kernel(1).mapDirect(*pong, flag1, 1, sys.kernel(0), *ping,
                            flag0, UpdateMode::AUTO_SINGLE);

    Program pa("ping");
    pa.movi(R6, flag0);
    pa.movi(R5, 0);
    pa.label("round");
    pa.addi(R5, 1);
    pa.st(R6, 0, R5, 4);
    pa.label("echo");
    pa.ld(R1, R6, 4, 4);
    pa.cmp(R1, R5);
    pa.jl("echo");
    pa.cmpi(R5, rounds);
    pa.jl("round");
    pa.halt();
    bench_util::load(sys.kernel(0), *ping, std::move(pa));

    Program pb("pong");
    pb.movi(R6, flag1);
    pb.movi(R5, 0);
    pb.label("round");
    pb.addi(R5, 1);
    pb.label("wait");
    pb.ld(R1, R6, 0, 4);
    pb.cmp(R1, R5);
    pb.jl("wait");
    pb.st(R6, 4, R5, 4);
    pb.cmpi(R5, rounds);
    pb.jl("round");
    pb.halt();
    bench_util::load(sys.kernel(1), *pong, std::move(pb));

    // Background job: one spinner per node (gang 2), long-running.
    std::vector<Process *> spinners;
    if (policy != Policy::ALONE) {
        for (NodeId n = 0; n < 2; ++n) {
            Process *s = sys.kernel(n).createProcess("spin");
            s->gangId = 2;
            Program sp("spin");
            sp.movi(R1, 0);
            sp.movi(R2, 3'000'000);
            sp.label("work");
            sp.addi(R1, 1);
            sp.cmp(R1, R2);
            sp.jl("work");
            sp.halt();
            bench_util::load(sys.kernel(n), *s, std::move(sp));
            spinners.push_back(s);
        }
    }

    std::unique_ptr<GangCoordinator> coordinator;
    if (policy == Policy::GANG) {
        coordinator = std::make_unique<GangCoordinator>(
            sys, std::vector<std::uint32_t>{1, 2}, quantum);
    }

    sys.startAll();

    // Run until the ping-pong job (not the background job) finishes.
    auto done = [&] {
        return ping->state == ProcState::EXITED &&
               pong->state == ProcState::EXITED;
    };
    while (!done() && !sys.eventQueue().empty() &&
           sys.curTick() <= 30 * ONE_SEC)
        sys.eventQueue().runOne();
    double us = done() ? static_cast<double>(sys.curTick()) / ONE_US : -1.0;
    m["sim_us_total"] = us;
    m["sim_us_per_round"] = us / rounds;
}

} // namespace

void
experiments::scheduling(claims::Rows &rows)
{
    // Reference: no competing job.
    runPingPongUnder(claims::newRow(rows, "PingPong_Alone"), Policy::ALONE,
                     50, 50 * ONE_US);
    // Uncoordinated timesharing: rounds wait for the peer's quantum.
    for (Tick us : {20, 50, 100}) {
        std::string name =
            "PingPong_RoundRobinCompetition/" + std::to_string(us);
        runPingPongUnder(claims::newRow(rows, name), Policy::ROUND_ROBIN,
                         50, us * ONE_US);
    }
    // Coordinated epochs: the peers run simultaneously.
    for (Tick us : {20, 50, 100}) {
        std::string name = "PingPong_GangScheduled/" + std::to_string(us);
        runPingPongUnder(claims::newRow(rows, name), Policy::GANG, 50,
                         us * ONE_US);
    }
}

} // namespace shrimp
