/**
 * @file
 * shrimp_lint: project-invariant static analysis for the SHRIMP
 * simulator tree. Complements clang-tidy (generic C++ hygiene, see
 * .clang-tidy) with rules that encode *this* project's invariants --
 * same-seed determinism (the chaos harness's gate), packet and object
 * ownership, tick width and stat hygiene:
 *
 *   shrimp-determinism-random   all randomness via sim/random.hh (Rng)
 *   shrimp-determinism-clock    no wall-clock reads in simulation code
 *   shrimp-ownership-raw-new    no owning raw new/delete or malloc/free
 *   shrimp-ownership-packet-shared
 *                               shared_ptr<NetPacket> fenced to nic/+net/
 *   shrimp-ownership-weak-backedge
 *                               shared_ptr back-edges should be weak_ptr
 *   shrimp-tick-narrowing       no narrowing of Tick (64-bit ps) to 32 bits
 *   shrimp-stats-desc           every stat carries a non-empty description
 *   shrimp-stats-reset          every Stat subclass overrides reset()
 *   shrimp-stats-accessor       no .value() read of a Counter member in
 *                               src/; counters are read by stat path
 *   shrimp-logging-raw-io       no raw printf/cout in src/; use
 *                               sim/logging.hh
 *   shrimp-epoch-compare        no raw ==/!= on incarnation numbers
 *                               outside os/health.*; use
 *                               Incarnation::sameLife/newerLife/observed
 *   shrimp-suppression-reason   every NOLINT(shrimp-*) states a reason
 *
 * Suppression: append `// NOLINT(shrimp-<rule>): <reason>` to the
 * offending line, or put `// NOLINTNEXTLINE(shrimp-<rule>): <reason>`
 * on the line above. The reason is mandatory; a reasonless shrimp
 * suppression is itself a finding and does not suppress anything.
 * clang-tidy ignores the shrimp-* names, so the two tools share the
 * comment syntax without shadowing each other.
 *
 * A small built-in allowlist covers the places that *implement* the
 * sanctioned backends (sim/random.hh is the RNG, sim/logging.cc is the
 * logging sink, sim/trace.cc stamps traces with capture wall-time --
 * metadata, never simulation state).
 *
 * Usage:
 *   shrimp_lint PATH...            lint files / directory trees
 *   shrimp_lint --selftest DIR     run the fixture self-test (each
 *                                  bad_<rule>*.cc must trip exactly its
 *                                  rule; good_*.cc must be clean)
 *   shrimp_lint --rules a,b PATH.. restrict to the named rules
 *   shrimp_lint --list-rules       print the rule table
 *
 * Exit status 0 iff no findings (or, under --selftest, every fixture
 * behaved as its name promises).
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------------
// Source model
// ---------------------------------------------------------------------

/** Which top-level tree a file belongs to; some rules are zone-gated. */
enum class Zone
{
    SRC,
    TESTS,
    BENCH,
    TOOLS,
    EXAMPLES,
    OTHER,
};

struct SourceFile
{
    std::string path;               //!< as reported in findings
    Zone zone = Zone::OTHER;
    bool packetFence = false;       //!< under src/nic/ or src/net/
    std::vector<std::string> raw;   //!< original lines (for NOLINT)
    std::vector<std::string> code;  //!< comments/string bodies blanked
    std::string joined;             //!< code lines joined with '\n'
    std::vector<std::size_t> lineAt; //!< joined offset -> 1-based line
};

struct Finding
{
    std::string path;
    std::size_t line;               //!< 1-based
    std::string rule;
    std::string msg;
};

/**
 * Blank comments and string/char-literal bodies, preserving line
 * structure and the quote characters themselves (so an empty literal
 * stays recognizable as `""`). Handles escapes and R"delim(...)delim".
 */
std::string
stripCode(const std::string &text)
{
    std::string out = text;
    enum
    {
        NORMAL,
        LINE_COMMENT,
        BLOCK_COMMENT,
        STRING,
        CHAR,
        RAW_STRING,
    } state = NORMAL;
    std::string rawEnd;             // )delim" terminator for raw strings

    for (std::size_t i = 0; i < out.size(); ++i) {
        char c = out[i];
        char next = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (state) {
          case NORMAL:
            if (c == '/' && next == '/') {
                state = LINE_COMMENT;
                out[i] = ' ';
            } else if (c == '/' && next == '*') {
                state = BLOCK_COMMENT;
                out[i] = ' ';
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || (!std::isalnum(
                                       static_cast<unsigned char>(
                                           out[i - 1])) &&
                                   out[i - 1] != '_'))) {
                std::size_t open = out.find('(', i + 2);
                if (open != std::string::npos) {
                    rawEnd = ")" + out.substr(i + 2, open - i - 2) + "\"";
                    state = RAW_STRING;
                    i = open;       // keep R"delim( readable
                }
            } else if (c == '"') {
                state = STRING;
            } else if (c == '\'') {
                state = CHAR;
            }
            break;
          case LINE_COMMENT:
            if (c == '\n')
                state = NORMAL;
            else
                out[i] = ' ';
            break;
          case BLOCK_COMMENT:
            if (c == '*' && next == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                state = NORMAL;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case STRING:
          case CHAR:
            if (c == '\\' && next != '\0') {
                out[i] = ' ';
                if (next != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if ((state == STRING && c == '"') ||
                       (state == CHAR && c == '\'')) {
                state = NORMAL;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case RAW_STRING:
            if (out.compare(i, rawEnd.size(), rawEnd) == 0) {
                i += rawEnd.size() - 1;
                state = NORMAL;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Positions of @p needle in @p hay with an identifier boundary on the
 *  left (when the needle starts with an identifier char). */
std::vector<std::size_t>
findWord(const std::string &hay, const std::string &needle)
{
    std::vector<std::size_t> hits;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + 1)) {
        if (identChar(needle.front()) && pos > 0 && identChar(hay[pos - 1]))
            continue;
        hits.push_back(pos);
    }
    return hits;
}

/**
 * Is one camelCase or snake_case part of @p word "tick" or "ticks",
 * in any case? `curTick`, `fifoStallTicks` and `MAX_TICK` are; a
 * longer word that only contains the letters, such as `ticket` or
 * `sticky`, is not.
 */
bool
hasTickPart(const std::string &word)
{
    auto upper = [&](std::size_t k) {
        return std::isupper(static_cast<unsigned char>(word[k])) != 0;
    };
    auto lower = [&](std::size_t k) {
        return k < word.size() &&
               std::islower(static_cast<unsigned char>(word[k])) != 0;
    };
    for (std::size_t i = 0; i < word.size();) {
        if (word[i] == '_') {
            ++i;
            continue;
        }
        // A part ends at '_', at a lower-to-upper step (curTick), or
        // before the last capital of an acronym (ABCTick).
        std::size_t j = i + 1;
        while (j < word.size() && word[j] != '_' &&
               !(upper(j) && (lower(j - 1) || lower(j + 1))))
            ++j;
        std::string part = word.substr(i, j - i);
        for (char &c : part)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        if (part == "tick" || part == "ticks")
            return true;
        i = j;
    }
    return false;
}

/** Does the text contain an identifier mentioning ticks? */
bool
hasTickToken(const std::string &text)
{
    for (std::size_t i = 0; i < text.size();) {
        if (!identChar(text[i]) ||
            (i > 0 && identChar(text[i - 1]))) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < text.size() && identChar(text[j]))
            ++j;
        if (hasTickPart(text.substr(i, j - i)))
            return true;
        i = j;
    }
    return false;
}

/**
 * The operand expression ending just before @p opPos: a backward scan
 * over identifier chars, member access (`.`/`->`/`::`), and one
 * balanced call-argument list, so `d.granteeIncarnation`,
 * `h.peerIncarnation(peer)` and `ns::inc` all come back whole.
 */
std::string
operandLeftOf(const std::string &code, std::size_t opPos)
{
    std::size_t j = opPos;
    while (j > 0 && (code[j - 1] == ' ' || code[j - 1] == '\t'))
        --j;
    std::size_t end = j;
    int depth = 0;
    while (j > 0) {
        char c = code[j - 1];
        if (c == ')') {
            ++depth;
            --j;
        } else if (c == '(') {
            if (depth == 0)
                break;
            --depth;
            --j;
        } else if (depth > 0) {
            --j;
        } else if (identChar(c) || c == '.' || c == ':') {
            --j;
        } else if (c == '>' && j >= 2 && code[j - 2] == '-') {
            j -= 2;
        } else {
            break;
        }
    }
    return code.substr(j, end - j);
}

/** The operand expression starting at @p from (mirror of the above). */
std::string
operandRightOf(const std::string &code, std::size_t from)
{
    std::size_t j = from;
    while (j < code.size() && (code[j] == ' ' || code[j] == '\t'))
        ++j;
    if (j < code.size() && code[j] == '!')
        ++j;                        // tolerate `!observed(x)` spellings
    std::size_t start = j;
    int depth = 0;
    while (j < code.size()) {
        char c = code[j];
        if (c == '(') {
            ++depth;
            ++j;
        } else if (c == ')') {
            if (depth == 0)
                break;
            --depth;
            ++j;
        } else if (depth > 0) {
            ++j;
        } else if (identChar(c) || c == '.' || c == ':') {
            ++j;
        } else if (c == '-' && j + 1 < code.size() &&
                   code[j + 1] == '>') {
            j += 2;
        } else {
            break;
        }
    }
    return code.substr(start, j - start);
}

/** Does the operand name an incarnation (life) number? */
bool
namesIncarnation(const std::string &operand)
{
    std::string low = operand;
    std::transform(low.begin(), low.end(), low.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return low.find("incarnation") != std::string::npos;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\n");
    return s.substr(b, e - b + 1);
}

/** Find the matching close for the bracket at @p open (code view). */
std::size_t
matchBracket(const std::string &s, std::size_t open, char oc, char cc)
{
    int depth = 0;
    for (std::size_t i = open; i < s.size(); ++i) {
        if (s[i] == oc)
            ++depth;
        else if (s[i] == cc && --depth == 0)
            return i;
    }
    return std::string::npos;
}

// ---------------------------------------------------------------------
// Rule framework
// ---------------------------------------------------------------------

class Linter
{
  public:
    explicit Linter(std::set<std::string> enabled)
        : _enabled(std::move(enabled))
    {}

    std::vector<Finding> lint(const SourceFile &f);

    struct RuleInfo
    {
        const char *name;
        const char *what;
    };
    static const std::vector<RuleInfo> &rules();

  private:
    bool on(const char *rule) const
    {
        return _enabled.empty() || _enabled.count(rule);
    }

    void add(const SourceFile &f, std::size_t line, const char *rule,
             const std::string &msg);

    void checkTokens(const SourceFile &f);
    void checkPacketShared(const SourceFile &f);
    void checkWeakBackedge(const SourceFile &f);
    void checkTickNarrowing(const SourceFile &f);
    void checkStatsDesc(const SourceFile &f);
    void checkStatsReset(const SourceFile &f);
    void checkStatsAccessor(const SourceFile &f);
    void checkEpochCompare(const SourceFile &f);
    void checkSuppressions(const SourceFile &f);

    static bool allowlisted(const SourceFile &f, const char *rule);
    static bool suppressed(const SourceFile &f, std::size_t line,
                           const std::string &rule);

    std::set<std::string> _enabled;
    std::vector<Finding> _out;
    std::set<std::pair<std::size_t, std::string>> _seen;
};

const std::vector<Linter::RuleInfo> &
Linter::rules()
{
    static const std::vector<RuleInfo> table = {
        {"shrimp-determinism-random",
         "all randomness must flow through the seeded shrimp::Rng "
         "(sim/random.hh); std::rand/random_device/mt19937 break "
         "same-seed reproducibility"},
        {"shrimp-determinism-clock",
         "no wall-clock reads (time/chrono clocks/gettimeofday) in "
         "simulation code; simulated time is curTick()"},
        {"shrimp-ownership-raw-new",
         "no owning raw new/delete or malloc/free; use "
         "std::unique_ptr/std::make_unique or a pool"},
        {"shrimp-ownership-packet-shared",
         "shared_ptr<NetPacket> creation is fenced to src/nic/ and "
         "src/net/: packets move by value, one owner at a time"},
        {"shrimp-ownership-weak-backedge",
         "shared_ptr member named like a back-edge (parent/owner/...) "
         "creates a reference cycle; use weak_ptr or a raw observer"},
        {"shrimp-tick-narrowing",
         "Tick is 64-bit picoseconds; narrowing to a 32-bit integer "
         "overflows after ~4.3 ms of simulated time"},
        {"shrimp-stats-desc",
         "every stat must be registered with a non-empty description "
         "(stats dumps are the bench/chaos regression currency)"},
        {"shrimp-stats-reset",
         "every stats::Stat subclass must override reset() so "
         "Group::resetAll() covers it"},
        {"shrimp-stats-accessor",
         "no .value() read of a stats::Counter member in src/: a "
         "counter has one name and one read path, its stat path "
         "through stats::Snapshot::at/sum"},
        {"shrimp-logging-raw-io",
         "no raw printf/std::cout/std::cerr in src/; route output "
         "through sim/logging.hh macros"},
        {"shrimp-epoch-compare",
         "raw ==/!= on an incarnation (life) number outside "
         "os/health.*; 0 means never-observed and must not fence -- "
         "wrap in Incarnation::sameLife/newerLife/observed"},
        {"shrimp-suppression-reason",
         "NOLINT(shrimp-*) must state a reason: "
         "`// NOLINT(shrimp-<rule>): <why>`"},
    };
    return table;
}

bool
Linter::allowlisted(const SourceFile &f, const char *rule)
{
    struct Entry
    {
        const char *suffix;
        const char *rule;
        // Rationale lives in DESIGN.md section 11.
    };
    static const Entry table[] = {
        {"sim/random.hh", "shrimp-determinism-random"},
        {"sim/logging.cc", "shrimp-logging-raw-io"},
        {"sim/trace.cc", "shrimp-determinism-clock"},
        // health.* defines Incarnation and the fence itself; its raw
        // compares are the sanctioned implementation.
        {"os/health.hh", "shrimp-epoch-compare"},
        {"os/health.cc", "shrimp-epoch-compare"},
    };
    for (const Entry &e : table) {
        std::string suffix = e.suffix;
        if (f.path.size() >= suffix.size() &&
            f.path.compare(f.path.size() - suffix.size(), suffix.size(),
                           suffix) == 0 &&
            rule == std::string(e.rule))
            return true;
    }
    return false;
}

/**
 * True iff @p line (1-based) carries a valid suppression for @p rule:
 * `NOLINT(<list>): reason` on the line itself or `NOLINTNEXTLINE`
 * on the line above, with @p rule in the list and a non-empty reason.
 */
bool
Linter::suppressed(const SourceFile &f, std::size_t line,
                   const std::string &rule)
{
    auto match = [&](const std::string &text, const char *marker) {
        std::size_t at = text.find(marker);
        if (at == std::string::npos)
            return false;
        std::size_t open = at + std::string(marker).size();
        if (open >= text.size() || text[open] != '(')
            return false;
        std::size_t close = text.find(')', open);
        if (close == std::string::npos)
            return false;
        std::string list = text.substr(open + 1, close - open - 1);
        bool named = false;
        std::istringstream ss(list);
        std::string item;
        while (std::getline(ss, item, ','))
            if (trim(item) == rule)
                named = true;
        if (!named)
            return false;
        // The reason after "):" is mandatory.
        if (close + 1 >= text.size() || text[close + 1] != ':')
            return false;
        return !trim(text.substr(close + 2)).empty();
    };
    if (line >= 1 && line <= f.raw.size() &&
        match(f.raw[line - 1], "NOLINT"))
        return true;
    return line >= 2 && match(f.raw[line - 2], "NOLINTNEXTLINE");
}

void
Linter::add(const SourceFile &f, std::size_t line, const char *rule,
            const std::string &msg)
{
    if (!on(rule) || allowlisted(f, rule) || suppressed(f, line, rule))
        return;
    if (!_seen.insert({line, rule}).second)
        return;
    _out.push_back(Finding{f.path, line, rule, msg});
}

// ---------------------------------------------------------------------
// Token rules: determinism, raw new/delete, logging
// ---------------------------------------------------------------------

void
Linter::checkTokens(const SourceFile &f)
{
    static const char *randomTokens[] = {
        "std::rand", "srand",     "rand_r",        "drand48",
        "lrand48",   "mrand48",   "random_device", "mt19937",
        "minstd_rand", "default_random_engine", "ranlux24", "ranlux48",
        "knuth_b",   "random_shuffle",
    };
    static const char *clockTokens[] = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "utc_clock",     "file_clock",   "gettimeofday",
        "clock_gettime", "timespec_get", "localtime",
        "gmtime",        "mktime",
    };

    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string &code = f.code[i];
        std::size_t line = i + 1;

        for (const char *tok : randomTokens)
            if (!findWord(code, tok).empty())
                add(f, line, "shrimp-determinism-random",
                    std::string(tok) +
                        ": use the seeded shrimp::Rng (sim/random.hh)");
        if (!findWord(code, "rand(").empty())
            add(f, line, "shrimp-determinism-random",
                "rand(): use the seeded shrimp::Rng (sim/random.hh)");
        if (code.find('#') != std::string::npos &&
            code.find("<random>") != std::string::npos)
            add(f, line, "shrimp-determinism-random",
                "#include <random>: use the seeded shrimp::Rng "
                "(sim/random.hh)");

        for (const char *tok : clockTokens)
            if (!findWord(code, tok).empty())
                add(f, line, "shrimp-determinism-clock",
                    std::string(tok) + ": wall-clock reads break "
                                       "same-seed determinism");
        if (!findWord(code, "time(").empty() ||
            !findWord(code, "clock(").empty())
            add(f, line, "shrimp-determinism-clock",
                "wall-clock read breaks same-seed determinism; "
                "simulated time is curTick()");

        // Owning raw allocation.
        for (std::size_t pos : findWord(code, "new")) {
            std::size_t after = pos + 3;
            while (after < code.size() && code[after] == ' ')
                ++after;
            if (after >= code.size())
                continue;
            // `new Foo` / `new (nothrow) Foo`; a bare right-adjacent
            // identifier (`newExpr`) is just a longer word.
            bool newExpr = (after > pos + 3 && identChar(code[after])) ||
                           code[after] == '(';
            if (newExpr)
                add(f, line, "shrimp-ownership-raw-new",
                    "owning raw `new`; use std::make_unique or a pool");
        }
        for (std::size_t pos : findWord(code, "delete")) {
            // `= delete;` declares a deleted function, not a free.
            std::size_t before = pos;
            while (before > 0 && code[before - 1] == ' ')
                --before;
            if (before > 0 && code[before - 1] == '=')
                continue;
            add(f, line, "shrimp-ownership-raw-new",
                "raw `delete`; ownership belongs in "
                "unique_ptr/pool destructors");
        }
        // Bare `free(` is deliberately absent: it is a legitimate
        // method name (FrameAllocator::free); the allocation sites
        // are what matter.
        for (const char *tok : {"malloc(", "calloc(", "realloc(",
                                "strdup(", "std::free"}) {
            for (std::size_t pos : findWord(code, tok)) {
                if (pos >= 1 && code[pos - 1] == '.')
                    continue;       // member call, not the C allocator
                if (pos >= 2 && code[pos - 2] == '-' &&
                    code[pos - 1] == '>')
                    continue;
                std::string what(tok);
                if (what.back() == '(')
                    what.pop_back();
                add(f, line, "shrimp-ownership-raw-new",
                    what + "(): C allocation; use RAII containers");
            }
        }

        // Raw console I/O is only banned inside the simulator library.
        if (f.zone == Zone::SRC) {
            bool raw = code.find("std::cout") != std::string::npos ||
                       code.find("std::cerr") != std::string::npos ||
                       !findWord(code, "printf(").empty() ||
                       !findWord(code, "puts(").empty() ||
                       !findWord(code, "putchar(").empty();
            if (!raw && !findWord(code, "fprintf(").empty())
                raw = code.find("stdout") != std::string::npos ||
                      code.find("stderr") != std::string::npos;
            if (raw)
                add(f, line, "shrimp-logging-raw-io",
                    "raw console I/O in src/; use SHRIMP_WARN/"
                    "SHRIMP_INFORM (sim/logging.hh) or the tracer");
        }
    }
}

// ---------------------------------------------------------------------
// Packet fence and back-edge heuristics
// ---------------------------------------------------------------------

void
Linter::checkPacketShared(const SourceFile &f)
{
    if (f.packetFence)
        return;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string &code = f.code[i];
        // Qualified spellings (shrimp::NetPacket) count too, so the
        // check is "an owning smart-pointer template naming the type",
        // not an exact-substring match. weak_ptr is deliberately fine.
        bool owning = code.find("shared_ptr<") != std::string::npos ||
                      code.find("make_shared<") != std::string::npos;
        if (owning && !findWord(code, "NetPacket").empty())
            add(f, i + 1, "shrimp-ownership-packet-shared",
                "NetPacket ref-counting outside nic/+net/; a packet "
                "moves by value, one owner at a time");
    }
}

void
Linter::checkWeakBackedge(const SourceFile &f)
{
    static const char *backNames[] = {"parent", "owner",  "back",
                                      "outer",  "enclosing"};
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string &code = f.code[i];
        std::size_t at = code.find("shared_ptr<");
        if (at == std::string::npos)
            continue;
        std::size_t close = matchBracket(code, at + 10, '<', '>');
        if (close == std::string::npos)
            continue;
        std::size_t p = close + 1;
        while (p < code.size() &&
               (code[p] == ' ' || code[p] == '&'))
            ++p;
        std::size_t q = p;
        while (q < code.size() && identChar(code[q]))
            ++q;
        std::string name = code.substr(p, q - p);
        // Normalize: strip leading underscores and an m_ prefix, then
        // lowercase, so `_parentNode`, `m_Owner`, `backEdge` all match.
        while (!name.empty() && name.front() == '_')
            name.erase(name.begin());
        if (name.rfind("m_", 0) == 0)
            name.erase(0, 2);
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        for (const char *bad : backNames)
            if (name.rfind(bad, 0) == 0)
                add(f, i + 1, "shrimp-ownership-weak-backedge",
                    "shared_ptr member '" + code.substr(p, q - p) +
                        "' looks like a back-edge; use weak_ptr (the "
                        "PR-3 sanitizer gate caught exactly this leak)");
    }
}

// ---------------------------------------------------------------------
// Tick narrowing
// ---------------------------------------------------------------------

bool
isNarrowType(std::string t)
{
    t = trim(t);
    if (t.rfind("std::", 0) == 0)
        t = t.substr(5);
    static const std::set<std::string> narrow = {
        "int",      "unsigned", "unsigned int", "short",
        "unsigned short", "long", "int8_t",   "int16_t",
        "int32_t",  "uint8_t",  "uint16_t",     "uint32_t",
    };
    return narrow.count(t) != 0;
}

void
Linter::checkTickNarrowing(const SourceFile &f)
{
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string &code = f.code[i];
        std::size_t line = i + 1;

        // static_cast<narrow>(...tick...)
        for (std::size_t pos : findWord(code, "static_cast<")) {
            std::size_t open = pos + 11;    // '<'
            std::size_t close = matchBracket(code, open, '<', '>');
            if (close == std::string::npos)
                continue;
            if (!isNarrowType(code.substr(open + 1, close - open - 1)))
                continue;
            std::size_t paren = code.find('(', close);
            if (paren == std::string::npos)
                continue;
            std::size_t end = matchBracket(code, paren, '(', ')');
            std::string arg =
                end == std::string::npos
                    ? code.substr(paren + 1)
                    : code.substr(paren + 1, end - paren - 1);
            if (hasTickToken(arg))
                add(f, line, "shrimp-tick-narrowing",
                    "static_cast narrows a Tick to 32 bits or less");
        }

        // (int)someTick / (uint32_t)curTick()
        for (const char *cast :
             {"(int)", "(unsigned)", "(short)", "(long)", "(int32_t)",
              "(uint32_t)", "(int16_t)", "(uint16_t)", "(int8_t)",
              "(uint8_t)"}) {
            std::size_t at = code.find(cast);
            if (at != std::string::npos &&
                hasTickToken(code.substr(at + std::string(cast).size(),
                                         48)))
                add(f, line, "shrimp-tick-narrowing",
                    "C-style cast narrows a Tick to 32 bits or less");
        }

        // int deadline = ...tick...;
        std::size_t b = code.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        for (const char *ty :
             {"int ", "unsigned ", "short ", "int32_t ", "uint32_t ",
              "int16_t ", "uint16_t ", "std::int32_t ",
              "std::uint32_t "}) {
            std::string prefix = ty;
            if (code.compare(b, prefix.size(), prefix) != 0)
                continue;
            if (prefix == "unsigned " &&
                (code.compare(b + 9, 5, "long ") == 0 ||
                 code.compare(b + 9, 4, "int ") == 0))
                continue;   // `unsigned long` is wide; int handled above
            std::size_t eq = code.find('=', b);
            std::size_t semi = code.find(';', b);
            if (eq == std::string::npos || semi == std::string::npos ||
                eq > semi)
                continue;
            if (hasTickToken(code.substr(eq + 1, semi - eq - 1)))
                add(f, line, "shrimp-tick-narrowing",
                    "initializing a 32-bit-or-less integer from a "
                    "Tick expression");
        }
    }
}

// ---------------------------------------------------------------------
// Stat hygiene
// ---------------------------------------------------------------------

void
Linter::checkStatsDesc(const SourceFile &f)
{
    static const char *statTypes[] = {"Counter", "Peak", "Histogram"};
    const std::string &s = f.joined;
    for (const char *ty : statTypes) {
        std::string token = std::string("stats::") + ty;
        for (std::size_t pos : findWord(s, token)) {
            std::size_t p = pos + token.size();
            if (p < s.size() && identChar(s[p]))
                continue;           // longer identifier
            while (p < s.size() && std::isspace(
                                       static_cast<unsigned char>(s[p])))
                ++p;
            // Member declaration: identifier then braced initializer.
            std::size_t q = p;
            while (q < s.size() && identChar(s[q]))
                ++q;
            if (q == p)
                continue;           // reference/param/return type use
            std::size_t r = q;
            while (r < s.size() && std::isspace(
                                       static_cast<unsigned char>(s[r])))
                ++r;
            if (r >= s.size() || s[r] != '{')
                continue;
            std::size_t close = matchBracket(s, r, '{', '}');
            if (close == std::string::npos)
                continue;
            std::string init = s.substr(r + 1, close - r - 1);

            // Split top-level args.
            std::vector<std::string> args;
            int depth = 0;
            std::string cur;
            for (char c : init) {
                if (c == '(' || c == '{' || c == '<')
                    ++depth;
                else if (c == ')' || c == '}' || c == '>')
                    --depth;
                if (c == ',' && depth == 0) {
                    args.push_back(trim(cur));
                    cur.clear();
                } else {
                    cur += c;
                }
            }
            if (!trim(cur).empty())
                args.push_back(trim(cur));

            // A stat is constructed as (group, name, description).
            const std::size_t descArg = 2;
            std::size_t line = f.lineAt[pos];
            if (args.size() <= descArg) {
                add(f, line, "shrimp-stats-desc",
                    std::string(ty) +
                        " constructed without a description");
                continue;
            }
            // String bodies are blanked, so an originally-empty
            // description is exactly `""`.
            if (args[descArg] == "\"\"")
                add(f, line, "shrimp-stats-desc",
                    std::string(ty) + " has an empty description");
        }
    }
}

void
Linter::checkStatsReset(const SourceFile &f)
{
    const std::string &s = f.joined;
    for (const char *base : {"public Stat", "public stats::Stat"}) {
        for (std::size_t pos : findWord(s, base)) {
            std::size_t after = pos + std::string(base).size();
            if (after < s.size() && identChar(s[after]))
                continue;           // e.g. `public Statistics`
            std::size_t open = s.find('{', after);
            if (open == std::string::npos)
                continue;
            std::size_t close = matchBracket(s, open, '{', '}');
            std::string body =
                close == std::string::npos
                    ? s.substr(open)
                    : s.substr(open, close - open);
            if (findWord(body, "reset(").empty())
                add(f, f.lineAt[pos], "shrimp-stats-reset",
                    "Stat subclass does not override reset(); "
                    "Group::resetAll() would silently skip it");
        }
    }
}

/**
 * A hand-written accessor gives a counter a second name and a second
 * read path beside the stats tree; tests, tools and reports read it by
 * stat path instead. In src/, a `.value()` read of a member this file
 * declares as a stats::Counter is a finding. Peaks and the other
 * stats are not in a Snapshot, so reading them stays legal.
 */
void
Linter::checkStatsAccessor(const SourceFile &f)
{
    if (f.zone != Zone::SRC)
        return;
    const std::string &s = f.joined;
    const std::string token = "stats::Counter";
    std::set<std::string> counters;
    for (std::size_t pos : findWord(s, token)) {
        std::size_t p = pos + token.size();
        if (p < s.size() && identChar(s[p]))
            continue;               // longer identifier
        while (p < s.size() &&
               std::isspace(static_cast<unsigned char>(s[p])))
            ++p;
        std::size_t q = p;
        while (q < s.size() && identChar(s[q]))
            ++q;
        if (q > p)
            counters.insert(s.substr(p, q - p));
    }
    for (const std::string &name : counters) {
        for (std::size_t pos : findWord(s, name + ".value(")) {
            add(f, f.lineAt[pos], "shrimp-stats-accessor",
                "`" + name + ".value()` reads a Counter beside the "
                "stats tree; read it by stat path "
                "(stats::Snapshot::at or sum)");
        }
    }
}

// ---------------------------------------------------------------------
// Epoch-compare fence
// ---------------------------------------------------------------------

/**
 * Partition tolerance (DESIGN.md section 14) rests on incarnation
 * numbers where 0 means "never observed" and must never fence. A raw
 * ==/!= on such a field re-implements the fence without the sentinel
 * and is exactly the bug the grantee-incarnation writeback fence once
 * had; every comparison goes through the Incarnation predicates in
 * os/health.hh instead (health.* itself is allowlisted -- it is the
 * implementation).
 */
void
Linter::checkEpochCompare(const SourceFile &f)
{
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string &code = f.code[i];
        for (std::size_t pos = 0; pos + 1 < code.size(); ++pos) {
            bool eq = code[pos] == '=' && code[pos + 1] == '=';
            bool ne = code[pos] == '!' && code[pos + 1] == '=';
            if (!eq && !ne)
                continue;
            // Not <=, >=, the tail of !=, or a chained ===.
            if (eq && pos > 0 &&
                (code[pos - 1] == '=' || code[pos - 1] == '!' ||
                 code[pos - 1] == '<' || code[pos - 1] == '>'))
                continue;
            if (code[pos + 1] == '=' && pos + 2 < code.size() &&
                code[pos + 2] == '=')
                continue;
            std::string lhs = operandLeftOf(code, pos);
            std::string rhs = operandRightOf(code, pos + 2);
            if (namesIncarnation(lhs) || namesIncarnation(rhs))
                add(f, i + 1, "shrimp-epoch-compare",
                    "raw " + std::string(eq ? "==" : "!=") +
                        " on an incarnation number; wrap in "
                        "Incarnation::sameLife/newerLife/observed "
                        "(os/health.hh)");
            ++pos;
        }
    }
}

// ---------------------------------------------------------------------
// Suppression audit
// ---------------------------------------------------------------------

void
Linter::checkSuppressions(const SourceFile &f)
{
    for (std::size_t i = 0; i < f.raw.size(); ++i) {
        const std::string &text = f.raw[i];
        std::size_t at = text.find("NOLINT");
        if (at == std::string::npos)
            continue;
        std::size_t open = text.find('(', at);
        std::size_t close =
            open == std::string::npos ? std::string::npos
                                      : text.find(')', open);
        if (close == std::string::npos)
            continue;
        // Only audit suppressions naming a real shrimp rule; prose
        // like `NOLINT(shrimp-<rule>)` in docs is not a suppression.
        bool namesRule = false;
        {
            std::istringstream ss(
                text.substr(open + 1, close - open - 1));
            std::string item;
            while (std::getline(ss, item, ','))
                for (const auto &info : rules())
                    if (trim(item) == info.name)
                        namesRule = true;
        }
        if (!namesRule)
            continue;               // pure clang-tidy suppression
        bool reasoned = close + 1 < text.size() &&
                        text[close + 1] == ':' &&
                        !trim(text.substr(close + 2)).empty();
        if (!reasoned)
            add(f, i + 1, "shrimp-suppression-reason",
                "shrimp NOLINT without a reason; write "
                "`NOLINT(shrimp-<rule>): <why>`");
    }
}

std::vector<Finding>
Linter::lint(const SourceFile &f)
{
    _out.clear();
    _seen.clear();
    checkTokens(f);
    checkPacketShared(f);
    checkWeakBackedge(f);
    checkTickNarrowing(f);
    checkStatsDesc(f);
    checkStatsReset(f);
    checkStatsAccessor(f);
    checkEpochCompare(f);
    checkSuppressions(f);
    std::sort(_out.begin(), _out.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.rule) <
                         std::tie(b.path, b.line, b.rule);
              });
    return _out;
}

// ---------------------------------------------------------------------
// File loading and tree walking
// ---------------------------------------------------------------------

Zone
zoneOf(const fs::path &p)
{
    Zone zone = Zone::OTHER;
    for (const auto &part : p) {
        if (part == "src")
            zone = Zone::SRC;
        else if (part == "tests")
            zone = Zone::TESTS;
        else if (part == "bench")
            zone = Zone::BENCH;
        else if (part == "tools")
            zone = Zone::TOOLS;
        else if (part == "examples")
            zone = Zone::EXAMPLES;
    }
    return zone;
}

bool
loadFile(const fs::path &p, SourceFile &out)
{
    std::ifstream in(p);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    out.path = p.generic_string();
    out.zone = zoneOf(p);
    out.packetFence =
        out.path.find("src/nic/") != std::string::npos ||
        out.path.find("src/net/") != std::string::npos;
    out.raw = splitLines(text);
    std::string code = stripCode(text);
    out.code = splitLines(code);
    out.joined = code;
    out.lineAt.assign(code.size() + 1, 1);
    std::size_t line = 1;
    for (std::size_t i = 0; i < code.size(); ++i) {
        out.lineAt[i] = line;
        if (code[i] == '\n')
            ++line;
    }
    out.lineAt[code.size()] = line;
    return true;
}

bool
lintableExtension(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".h" || ext == ".hpp";
}

std::vector<fs::path>
collect(const std::vector<std::string> &roots)
{
    std::vector<fs::path> files;
    for (const std::string &root : roots) {
        fs::path p(root);
        if (fs::is_regular_file(p)) {
            files.push_back(p);
            continue;
        }
        if (!fs::is_directory(p)) {
            std::fprintf(stderr, "shrimp_lint: no such path: %s\n",
                         root.c_str());
            continue;
        }
        for (const auto &ent : fs::recursive_directory_iterator(p)) {
            if (!ent.is_regular_file() ||
                !lintableExtension(ent.path()))
                continue;
            std::string sp = ent.path().generic_string();
            // Fixtures are deliberately bad; build trees are generated.
            if (sp.find("lint_fixtures") != std::string::npos ||
                sp.find("/build") != std::string::npos ||
                sp.find("CMakeFiles") != std::string::npos)
                continue;
            files.push_back(ent.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

int
runLint(const std::vector<std::string> &roots,
        const std::set<std::string> &enabled)
{
    Linter linter(enabled);
    std::size_t nFindings = 0;
    std::size_t nFiles = 0;
    for (const fs::path &p : collect(roots)) {
        SourceFile f;
        if (!loadFile(p, f)) {
            std::fprintf(stderr, "shrimp_lint: cannot read %s\n",
                         p.string().c_str());
            return 2;
        }
        ++nFiles;
        for (const Finding &fd : linter.lint(f)) {
            std::fprintf(stderr, "%s:%zu: [%s] %s\n", fd.path.c_str(),
                         fd.line, fd.rule.c_str(), fd.msg.c_str());
            ++nFindings;
        }
    }
    if (nFindings) {
        std::fprintf(stderr, "shrimp_lint: %zu finding%s in %zu files\n",
                     nFindings, nFindings == 1 ? "" : "s", nFiles);
        return 1;
    }
    std::printf("shrimp_lint: %zu files clean\n", nFiles);
    return 0;
}

/**
 * Fixture self-test. bad_<rule>*.cc must produce at least one finding,
 * all of them for exactly <rule> (underscores spell the dashes);
 * good_*.cc must be clean. Fixtures are linted as if they lived in
 * src/ so zone-gated rules apply.
 */
int
runSelftest(const std::string &dir)
{
    std::vector<fs::path> files;
    if (!fs::is_directory(dir)) {
        std::fprintf(stderr, "shrimp_lint: no fixture dir %s\n",
                     dir.c_str());
        return 2;
    }
    for (const auto &ent : fs::directory_iterator(dir))
        if (ent.is_regular_file() && lintableExtension(ent.path()))
            files.push_back(ent.path());
    std::sort(files.begin(), files.end());

    Linter linter({});
    int failures = 0;
    std::size_t checked = 0;
    for (const fs::path &p : files) {
        std::string stem = p.stem().string();
        SourceFile f;
        if (!loadFile(p, f)) {
            std::fprintf(stderr, "selftest: cannot read %s\n",
                         p.string().c_str());
            return 2;
        }
        f.zone = Zone::SRC;         // fixtures model simulator code
        f.packetFence = false;
        auto findings = linter.lint(f);
        ++checked;

        if (stem.rfind("good", 0) == 0) {
            if (!findings.empty()) {
                std::fprintf(stderr,
                             "selftest FAIL %s: expected clean, got:\n",
                             stem.c_str());
                for (const auto &fd : findings)
                    std::fprintf(stderr, "  line %zu: [%s] %s\n",
                                 fd.line, fd.rule.c_str(),
                                 fd.msg.c_str());
                ++failures;
            }
            continue;
        }
        if (stem.rfind("bad_", 0) != 0) {
            std::fprintf(stderr,
                         "selftest FAIL %s: fixture names must start "
                         "with good or bad_\n",
                         stem.c_str());
            ++failures;
            continue;
        }
        // bad_tick_narrowing2 -> shrimp-tick-narrowing
        std::string rule = stem.substr(4);
        while (!rule.empty() &&
               std::isdigit(static_cast<unsigned char>(rule.back())))
            rule.pop_back();
        std::replace(rule.begin(), rule.end(), '_', '-');
        rule = "shrimp-" + rule;

        bool known = false;
        for (const auto &info : Linter::rules())
            if (rule == info.name)
                known = true;
        if (!known) {
            std::fprintf(stderr,
                         "selftest FAIL %s: names unknown rule %s\n",
                         stem.c_str(), rule.c_str());
            ++failures;
            continue;
        }
        if (findings.empty()) {
            std::fprintf(stderr,
                         "selftest FAIL %s: %s did not fire\n",
                         stem.c_str(), rule.c_str());
            ++failures;
            continue;
        }
        for (const auto &fd : findings) {
            if (fd.rule != rule) {
                std::fprintf(stderr,
                             "selftest FAIL %s: stray finding [%s] at "
                             "line %zu (wanted only %s)\n",
                             stem.c_str(), fd.rule.c_str(), fd.line,
                             rule.c_str());
                ++failures;
            }
        }
    }
    if (!checked) {
        std::fprintf(stderr, "selftest: no fixtures found in %s\n",
                     dir.c_str());
        return 2;
    }
    if (failures) {
        std::fprintf(stderr, "selftest: %d failure%s\n", failures,
                     failures == 1 ? "" : "s");
        return 1;
    }
    std::printf("selftest: %zu fixtures ok\n", checked);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> roots;
    std::set<std::string> enabled;
    std::string selftestDir;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const auto &info : Linter::rules())
                std::printf("%-34s %s\n", info.name, info.what);
            return 0;
        }
        if (arg == "--selftest") {
            if (++i >= argc) {
                std::fprintf(stderr, "--selftest needs a directory\n");
                return 2;
            }
            selftestDir = argv[i];
        } else if (arg == "--rules") {
            if (++i >= argc) {
                std::fprintf(stderr, "--rules needs a list\n");
                return 2;
            }
            std::istringstream ss(argv[i]);
            std::string item;
            while (std::getline(ss, item, ','))
                if (!trim(item).empty())
                    enabled.insert(trim(item));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "usage: shrimp_lint [--list-rules] "
                         "[--rules a,b] [--selftest DIR] PATH...\n");
            return 2;
        } else {
            roots.push_back(arg);
        }
    }

    if (!selftestDir.empty())
        return runSelftest(selftestDir);
    if (roots.empty()) {
        std::fprintf(stderr,
                     "usage: shrimp_lint [--list-rules] [--rules a,b] "
                     "[--selftest DIR] PATH...\n");
        return 2;
    }
    return runLint(roots, enabled);
}
