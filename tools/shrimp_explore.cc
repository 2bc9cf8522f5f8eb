/**
 * @file
 * shrimp_explore: a command-line front end to the simulator for quick
 * what-if exploration without writing code.
 *
 * Usage:
 *   shrimp_explore latency   [--nextgen] [--hops N] [--trace-out F]
 *                            [--stats-json F]
 *   shrimp_explore bandwidth [--nextgen] [--kb N] [--trace-out F]
 *                            [--stats-json F]
 *   shrimp_explore table1
 *   shrimp_explore stats     [--nextgen] [--reliable] [--drop PERMILLE]
 *                            [--trace-out F] [--stats-json F]
 *   shrimp_explore chaos     [--seed N] [--width W] [--height H]
 *                            [--duration-ms N] [--crashes N]
 *                            [--flaps N] [--partitions N] [--json F]
 *                            [--trace-out F]
 *
 * `latency` and `bandwidth` reproduce the paper's Section 5.1 numbers
 * for arbitrary parameters; `table1` prints the software-overhead
 * table; `stats` runs a small workload and dumps every component's
 * statistics (bus transactions, cache hits, NIPT traffic, ...).
 *
 * `chaos` runs one seeded chaos-soak schedule (node crash/restart
 * cycles, link flaps and, with --partitions, network partition/heal
 * cycles against mixed traffic) and checks the global invariants;
 * exit status 0 iff they all hold. `--chaos` is accepted
 * as an alias. It prints the report's counters by stat path, summed
 * across nodes and routers; --json FILE writes the machine-readable
 * report with every counter.
 *
 * --trace-out FILE records a packet-lifecycle event trace and writes
 * it as Chrome trace-event JSON (open with ui.perfetto.dev);
 * --stats-json FILE writes the statistics as one flat JSON object.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <string>

#include "../bench/bench_util.hh"
#include "core/chaos.hh"
#include "core/table1.hh"

using namespace shrimp;

namespace
{

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

long
argValue(int argc, char **argv, const char *flag, long fallback)
{
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return std::strtol(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

const char *
argString(int argc, char **argv, const char *flag)
{
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

int
cmdLatency(int argc, char **argv)
{
    bool next_gen = hasFlag(argc, argv, "--nextgen");
    long hops = argValue(argc, argv, "--hops", 3);
    double us = bench_util::measureSingleWriteLatencyUs(
        next_gen, static_cast<unsigned>(hops),
        argString(argc, argv, "--trace-out"),
        argString(argc, argv, "--stats-json"));
    std::printf("single-write automatic-update latency\n");
    std::printf("  datapath : %s\n",
                next_gen ? "next-gen (Xpress-direct)"
                         : "EISA prototype");
    std::printf("  hops     : %ld\n", hops);
    std::printf("  latency  : %.3f us (paper: %s)\n", us,
                next_gen ? "< 1 us" : "slightly < 2 us");
    return 0;
}

int
cmdBandwidth(int argc, char **argv)
{
    bool next_gen = hasFlag(argc, argv, "--nextgen");
    long kb = argValue(argc, argv, "--kb", 64);
    auto r = bench_util::measureDeliberateBandwidth(
        next_gen, static_cast<Addr>(kb) * 1024,
        argString(argc, argv, "--trace-out"),
        argString(argc, argv, "--stats-json"));
    std::printf("deliberate-update streaming bandwidth\n");
    std::printf("  datapath  : %s\n",
                next_gen ? "next-gen (Xpress-direct)"
                         : "EISA prototype");
    std::printf("  transfer  : %ld KB in %zu packets\n", kb,
                static_cast<std::size_t>(r.packets));
    std::printf("  bandwidth : %.1f MB/s (paper: %s)\n", r.mbps,
                next_gen ? "~70 MB/s" : "33 MB/s");
    return 0;
}

int
cmdTable1()
{
    struct Row
    {
        const char *name;
        const char *paper;
        table1::PrimitiveCost cost;
    };
    Row rows[] = {
        {"single buffering", "9 (4+5)",
         table1::runSingleBuffering(false)},
        {"single buffering + copy", "21 (4+17)",
         table1::runSingleBuffering(true)},
        {"double buffering (case 1)", "2 (1+1)",
         table1::runDoubleBuffering(1)},
        {"double buffering (case 2)", "8 (3+5)",
         table1::runDoubleBuffering(2)},
        {"double buffering (case 3)", "10 (5+5)",
         table1::runDoubleBuffering(3)},
        {"deliberate-update transfer", "15 (15+0)",
         table1::runDeliberateUpdate()},
        {"csend and crecv (user)", "151 (73+78)",
         table1::runUserNx2()},
    };

    std::printf("%-28s %-12s %-14s %s\n", "primitive", "paper",
                "measured", "verified");
    for (const Row &row : rows) {
        char measured[32];
        std::snprintf(measured, sizeof(measured), "%.0f (%.0f+%.0f)",
                      row.cost.sendPerMsg + row.cost.recvPerMsg,
                      row.cost.sendPerMsg, row.cost.recvPerMsg);
        std::printf("%-28s %-12s %-14s %s\n", row.name, row.paper,
                    measured, row.cost.dataOk ? "yes" : "NO");
    }
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.nextGenDatapath = hasFlag(argc, argv, "--nextgen");
    // What-if: a lossy fabric healed by the NI reliability layer.
    cfg.ni.reliability.enabled = hasFlag(argc, argv, "--reliable");
    cfg.linkFaults.dropProb =
        argValue(argc, argv, "--drop", 0) / 1000.0;
    const char *trace_out = argString(argc, argv, "--trace-out");
    const char *stats_json = argString(argc, argv, "--stats-json");
    cfg.traceEnabled = trace_out != nullptr;
    ShrimpSystem sys(cfg);

    Process *a = sys.kernel(0).createProcess("a");
    Process *b = sys.kernel(1).createProcess("b");
    Addr src = a->allocate(1);
    Addr dst = b->allocate(1);
    sys.kernel(0).mapDirect(*a, src, 1, sys.kernel(1), *b, dst,
                            UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, src);
    for (int i = 0; i < 32; ++i)
        pa.sti(R1, 4 * i, i, 4);
    pa.halt();
    pa.finalize();
    sys.kernel(0).loadAndReady(*a,
                               std::make_shared<Program>(std::move(pa)));
    Program pb("b");
    pb.halt();
    pb.finalize();
    sys.kernel(1).loadAndReady(*b,
                               std::make_shared<Program>(std::move(pb)));

    sys.startAll();
    sys.runUntilAllExited();
    sys.runFor(cfg.ni.reliability.enabled ? 50 * ONE_MS : ONE_MS);
    sys.dumpStats(std::cout);
    if (trace_out)
        sys.tracer()->writeFile(trace_out);
    if (stats_json) {
        std::ofstream out(stats_json);
        sys.dumpStatsJson(out);
    }
    return 0;
}

int
cmdChaos(int argc, char **argv)
{
    ChaosParams p;
    p.seed =
        static_cast<std::uint64_t>(argValue(argc, argv, "--seed", 1));
    p.meshWidth =
        static_cast<unsigned>(argValue(argc, argv, "--width", 2));
    p.meshHeight =
        static_cast<unsigned>(argValue(argc, argv, "--height", 2));
    p.duration = static_cast<Tick>(
                     argValue(argc, argv, "--duration-ms", 30)) *
                 ONE_MS;
    p.crashes =
        static_cast<unsigned>(argValue(argc, argv, "--crashes", 1));
    p.linkFlaps =
        static_cast<unsigned>(argValue(argc, argv, "--flaps", 3));
    p.overloadBursts =
        static_cast<unsigned>(argValue(argc, argv, "--bursts", 2));
    p.burstWritesPerSender = static_cast<unsigned>(
        argValue(argc, argv, "--burst-writes", 24));
    p.partitions = static_cast<unsigned>(
        argValue(argc, argv, "--partitions", 0));
    if (const char *trace = argString(argc, argv, "--trace-out"))
        p.tracePath = trace;

    ChaosReport r = runChaos(p);

    // Roll the snapshot up across nodes and routers: every path with
    // its group indices starred (node3.ni.x -> node*.ni.x), summed.
    const std::regex index(R"(\d+\.)");
    std::map<std::string, std::uint64_t> rolled;
    for (const auto &[path, value] : r.counters.values)
        rolled[std::regex_replace(path, index, "*.")] += value;

    std::printf("chaos soak (seed %llu, %ux%u mesh, %llu ms)\n",
                static_cast<unsigned long long>(p.seed), p.meshWidth,
                p.meshHeight,
                static_cast<unsigned long long>(p.duration / ONE_MS));
    // The harness's own chaos.* group in full (it sorts first), then
    // every non-zero machine counter.
    for (const auto &[key, value] : rolled) {
        if (value != 0 || key.starts_with("chaos.")) {
            std::printf("  %-44s %llu\n", key.c_str(),
                        static_cast<unsigned long long>(value));
        }
    }
    std::printf("  stats fingerprint : %016llx\n",
                static_cast<unsigned long long>(r.statsFingerprint));
    std::printf("  invariants        : %s\n",
                r.ok() ? "all hold" : "VIOLATED");
    for (const std::string &v : r.violations)
        std::printf("    ! %s\n", v.c_str());

    if (const char *path = argString(argc, argv, "--json")) {
        std::ofstream out(path);
        writeChaosJson(out, p, r);
    }
    return r.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s {latency|bandwidth|table1|stats|chaos} "
                     "[options]\n",
                     argv[0]);
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "latency")
        return cmdLatency(argc, argv);
    if (cmd == "bandwidth")
        return cmdBandwidth(argc, argv);
    if (cmd == "table1")
        return cmdTable1();
    if (cmd == "stats")
        return cmdStats(argc, argv);
    if (cmd == "chaos" || cmd == "--chaos")
        return cmdChaos(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}
