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
 *   shrimp_explore stats     [--nextgen] [--reliable] [--drop PERMILLE]
 *                            [--trace-out F] [--stats-json F]
 *   shrimp_explore chaos     [--seed N] [--width W] [--height H]
 *                            [--duration-ms N] [--crashes N]
 *                            [--flaps N] [--bursts N] [--burst-writes N]
 *                            [--partitions N] [--json F] [--trace-out F]
 *
 * An unknown option, a repeated one, a value that is not an integer
 * or one outside its range (see kUsage) is a usage error: exit 2.
 *
 * `latency` and `bandwidth` reproduce the paper's Section 5.1 numbers
 * for arbitrary parameters (shrimp_claims checks the paper's own
 * points, Table 1 included); `stats` runs a small workload and dumps
 * every component's statistics (bus transactions, cache hits, NIPT
 * traffic, ...).
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

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <regex>
#include <string>

#include "../bench/bench_util.hh"
#include "core/chaos.hh"

using namespace shrimp;

namespace
{

const char kUsage[] =
    "usage: shrimp_explore latency   [--nextgen] [--hops 0-6]\n"
    "                                [--trace-out F] [--stats-json F]\n"
    "       shrimp_explore bandwidth [--nextgen] [--kb N] [--trace-out F]\n"
    "                                [--stats-json F]\n"
    "       shrimp_explore stats     [--nextgen] [--reliable]\n"
    "                                [--drop 0-1000] [--trace-out F]\n"
    "                                [--stats-json F]\n"
    "       shrimp_explore chaos     [--seed N] [--width 1-8]\n"
    "                                [--height 1-8] [--duration-ms 0-1000]\n"
    "                                [--crashes 0-100] [--flaps 0-100]\n"
    "                                [--bursts 0-100]\n"
    "                                [--burst-writes 0-1000]\n"
    "                                [--partitions 0-100] [--json F]\n"
    "                                [--trace-out F]\n"
    "--kb is a multiple of 4 from 4 to 2048 (half a node's DRAM); a\n"
    "chaos mesh has at least 2 nodes; --seed is any integer >= 0.\n";

/** Print @p msg and the usage text, and exit 2. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "shrimp_explore: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

/** One option a command accepts: a switch, a path, or an integer
 *  within [lo, hi]. */
struct Option
{
    const char *flag;
    enum Kind { SWITCH, PATH, INT } kind;
    long lo = 0;
    long hi = 0;
};

/** A command's options, checked against the command's table: any
 *  other argument is a usage error that names it. */
class Options
{
  public:
    Options(int argc, char **argv, std::initializer_list<Option> table)
    {
        for (int i = 2; i < argc; ++i) {
            std::string flag = argv[i];
            auto opt = std::find_if(
                table.begin(), table.end(),
                [&](const Option &o) { return flag == o.flag; });
            if (opt == table.end()) {
                usageError("unknown option '" + flag + "' for '" +
                           argv[1] + "'");
            }
            const char *value = "";
            if (opt->kind != Option::SWITCH) {
                if (i + 1 == argc)
                    usageError("'" + flag + "' needs a value");
                value = argv[++i];
            }
            if (opt->kind == Option::INT)
                checkInt(*opt, value);
            if (!_values.emplace(flag, value).second)
                usageError("'" + flag + "' given twice");
        }
    }

    bool has(const char *flag) const { return _values.count(flag) != 0; }

    /** An INT option's value, or @p fallback when it is absent. */
    long
    num(const char *flag, long fallback) const
    {
        auto it = _values.find(flag);
        return it == _values.end() ? fallback
                                   : std::strtol(it->second, nullptr, 10);
    }

    /** A PATH option's value, or nullptr when it is absent. */
    const char *
    path(const char *flag) const
    {
        auto it = _values.find(flag);
        return it == _values.end() ? nullptr : it->second;
    }

  private:
    static void
    checkInt(const Option &opt, const char *value)
    {
        char *end = nullptr;
        errno = 0;
        long n = std::strtol(value, &end, 10);
        if (*value == '\0' || *end != '\0' || errno == ERANGE) {
            usageError(std::string("'") + opt.flag +
                       "' needs an integer, got '" + value + "'");
        }
        if (n < opt.lo || n > opt.hi) {
            usageError(std::string("'") + opt.flag + "' must be " +
                       std::to_string(opt.lo) + "-" +
                       std::to_string(opt.hi) + ", got " + value);
        }
    }

    std::map<std::string, const char *> _values;
};

int
cmdLatency(int argc, char **argv)
{
    // Hops along the paper's 4x4 mesh: east then south from node 0.
    Options o(argc, argv,
              {{"--nextgen", Option::SWITCH},
               {"--hops", Option::INT, 0, 6},
               {"--trace-out", Option::PATH},
               {"--stats-json", Option::PATH}});
    bool next_gen = o.has("--nextgen");
    long hops = o.num("--hops", 3);
    claims::Metrics m;
    bench_util::measureSingleWriteLatency(
        m, next_gen, static_cast<unsigned>(hops), o.path("--trace-out"),
        o.path("--stats-json"));
    std::printf("single-write automatic-update latency\n");
    std::printf("  datapath : %s\n",
                next_gen ? "next-gen (Xpress-direct)"
                         : "EISA prototype");
    std::printf("  hops     : %ld\n", hops);
    std::printf("  latency  : %.3f us (paper: %s)\n", m.at("sim_latency_us"),
                next_gen ? "< 1 us" : "slightly < 2 us");
    return 0;
}

int
cmdBandwidth(int argc, char **argv)
{
    // Whole 4 KB pages, at most half of a node's 4 MB of DRAM.
    Options o(argc, argv,
              {{"--nextgen", Option::SWITCH},
               {"--kb", Option::INT, 4, 2048},
               {"--trace-out", Option::PATH},
               {"--stats-json", Option::PATH}});
    bool next_gen = o.has("--nextgen");
    long kb = o.num("--kb", 64);
    if (kb % 4 != 0)
        usageError("'--kb' must be a multiple of 4, got " +
                   std::to_string(kb));
    claims::Metrics m;
    bench_util::measureDeliberateBandwidth(
        m, next_gen, static_cast<Addr>(kb) * 1024, o.path("--trace-out"),
        o.path("--stats-json"));
    std::printf("deliberate-update streaming bandwidth\n");
    std::printf("  datapath  : %s\n",
                next_gen ? "next-gen (Xpress-direct)"
                         : "EISA prototype");
    std::printf("  transfer  : %ld KB in %zu packets\n", kb,
                static_cast<std::size_t>(m.at("packets")));
    std::printf("  bandwidth : %.1f MB/s (paper: %s)\n", m.at("sim_MBps"),
                next_gen ? "~70 MB/s" : "33 MB/s");
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    Options o(argc, argv,
              {{"--nextgen", Option::SWITCH},
               {"--reliable", Option::SWITCH},
               {"--drop", Option::INT, 0, 1000},
               {"--trace-out", Option::PATH},
               {"--stats-json", Option::PATH}});
    SystemConfig cfg;
    cfg.meshWidth = 2;
    cfg.meshHeight = 1;
    cfg.ni.nextGenDatapath = o.has("--nextgen");
    // What-if: a lossy fabric healed by the NI reliability layer.
    cfg.ni.reliability.enabled = o.has("--reliable");
    cfg.linkFaults.dropProb = o.num("--drop", 0) / 1000.0;
    cfg.traceEnabled = o.has("--trace-out");
    bench_util::StoreScenario s(cfg, 1, 1, UpdateMode::AUTO_SINGLE);

    Program pa("a");
    pa.movi(R1, s.src);
    for (int i = 0; i < 32; ++i)
        pa.sti(R1, 4 * i, i, 4);
    pa.halt();
    s.run(std::move(pa), cfg.ni.reliability.enabled ? 50 * ONE_MS : ONE_MS);
    s.sys.dumpStats(std::cout);
    s.writeFiles(o.path("--trace-out"), o.path("--stats-json"));
    return 0;
}

int
cmdChaos(int argc, char **argv)
{
    // Larger meshes soon outgrow a node's default 4 MB of DRAM (a
    // chaos run on 11x11 no longer boots).
    Options o(argc, argv,
              {{"--seed", Option::INT, 0, LONG_MAX},
               {"--width", Option::INT, 1, 8},
               {"--height", Option::INT, 1, 8},
               {"--duration-ms", Option::INT, 0, 1000},
               {"--crashes", Option::INT, 0, 100},
               {"--flaps", Option::INT, 0, 100},
               {"--bursts", Option::INT, 0, 100},
               {"--burst-writes", Option::INT, 0, 1000},
               {"--partitions", Option::INT, 0, 100},
               {"--json", Option::PATH},
               {"--trace-out", Option::PATH}});
    ChaosParams p;
    p.seed = static_cast<std::uint64_t>(o.num("--seed", 1));
    p.meshWidth = static_cast<unsigned>(o.num("--width", 2));
    p.meshHeight = static_cast<unsigned>(o.num("--height", 2));
    if (p.meshWidth * p.meshHeight < 2) {
        usageError("a chaos mesh needs at least 2 nodes, got " +
                   std::to_string(p.meshWidth) + "x" +
                   std::to_string(p.meshHeight));
    }
    p.duration = static_cast<Tick>(o.num("--duration-ms", 30)) * ONE_MS;
    p.crashes = static_cast<unsigned>(o.num("--crashes", 1));
    p.linkFlaps = static_cast<unsigned>(o.num("--flaps", 3));
    p.overloadBursts = static_cast<unsigned>(o.num("--bursts", 2));
    p.burstWritesPerSender =
        static_cast<unsigned>(o.num("--burst-writes", 24));
    p.partitions = static_cast<unsigned>(o.num("--partitions", 0));
    if (const char *trace = o.path("--trace-out"))
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

    if (const char *path = o.path("--json")) {
        std::ofstream out(path);
        writeChaosJson(out, p, r);
    }
    return r.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usageError("no command given");
    std::string cmd = argv[1];
    if (cmd == "latency")
        return cmdLatency(argc, argv);
    if (cmd == "bandwidth")
        return cmdBandwidth(argc, argv);
    if (cmd == "stats")
        return cmdStats(argc, argv);
    if (cmd == "chaos" || cmd == "--chaos")
        return cmdChaos(argc, argv);
    usageError("unknown command '" + cmd + "'");
}
