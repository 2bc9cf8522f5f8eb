/**
 * @file
 * shrimp_validate: schema checks for the simulator's machine-readable
 * artifacts, used by the cli_*_validate tests.
 *
 * Usage:
 *   shrimp_validate trace FILE...     Chrome trace-event JSON
 *   shrimp_validate stats FILE...     flat stats JSON object
 *   shrimp_validate chaos FILE...     chaos-soak report JSON
 *
 * Exit status 0 iff every file parses and conforms.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "sim/json.hh"

using shrimp::json::Value;

namespace
{

int g_errors = 0;

void
fail(const std::string &file, const std::string &what)
{
    std::fprintf(stderr, "%s: %s\n", file.c_str(), what.c_str());
    ++g_errors;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Chrome trace-event JSON: the shape Perfetto actually needs. */
void
validateTrace(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "trace root is not an object");
    const Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return fail(file, "missing traceEvents array");

    std::set<std::string> open_flows;
    for (std::size_t i = 0; i < events->arr.size(); ++i) {
        const Value &ev = events->arr[i];
        std::string where = "traceEvents[" + std::to_string(i) + "]";
        if (!ev.isObject())
            return fail(file, where + " is not an object");
        const Value *ph = ev.find("ph");
        const Value *name = ev.find("name");
        if (!ph || !ph->isString() || ph->str.size() != 1)
            return fail(file, where + " has no one-char ph");
        if (!name || !name->isString())
            return fail(file, where + " has no name");
        char p = ph->str[0];
        if (std::strchr("BEXibne", p) && !ev.find("ts"))
            return fail(file, where + " has no ts");
        if (p == 'X' && !ev.find("dur"))
            return fail(file, where + " X event has no dur");
        if (p == 'b' || p == 'n' || p == 'e') {
            const Value *id = ev.find("id");
            const Value *cat = ev.find("cat");
            if (!id || !id->isString())
                return fail(file, where + " flow event has no id");
            if (!cat || !cat->isString())
                return fail(file, where + " flow event has no cat");
            std::string key = cat->str + "/" + id->str;
            if (p == 'b')
                open_flows.insert(key);
            else if (!open_flows.count(key))
                return fail(file, where + " flow " + key +
                                      " was never opened");
            if (p == 'e')
                open_flows.erase(key);
        }
    }
}

/** Flat stats object: every member a number or a stats sub-object. */
void
validateStats(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "stats root is not an object");
    if (root.obj.empty())
        return fail(file, "stats object is empty");
    for (const auto &[key, value] : root.obj) {
        if (value.isNumber())
            continue;
        if (!value.isObject())
            return fail(file, key + " is neither number nor object");
        const Value *count = value.find("count");
        if (!count || !count->isNumber())
            return fail(file, key + " has no numeric count");
    }
}

/** Chaos-soak report written by `shrimp_explore chaos --json`. */
void
validateChaos(const std::string &file, const Value &root)
{
    if (!root.isObject())
        return fail(file, "chaos root is not an object");
    const Value *ver = root.find("schema_version");
    if (!ver || !ver->isNumber() || ver->number != 2)
        return fail(file, "schema_version != 2");
    const Value *kind = root.find("kind");
    if (!kind || !kind->isString() || kind->str != "chaos")
        return fail(file, "kind != \"chaos\"");
    const Value *seed = root.find("seed");
    if (!seed || !seed->isNumber())
        return fail(file, "missing numeric seed");
    const Value *ok = root.find("ok");
    if (!ok || !ok->isBool())
        return fail(file, "missing boolean ok");
    const Value *fp = root.find("stats_fingerprint");
    if (!fp || !fp->isString() || fp->str.size() != 16)
        return fail(file, "stats_fingerprint is not 16 hex chars");
    const Value *violations = root.find("violations");
    if (!violations || !violations->isArray())
        return fail(file, "missing violations array");
    for (std::size_t i = 0; i < violations->arr.size(); ++i) {
        if (!violations->arr[i].isString())
            return fail(file, "violations[" + std::to_string(i) +
                                  "] is not a string");
    }
    // A report may only claim success with zero violations.
    if (ok->boolean && !violations->arr.empty())
        return fail(file, "ok is true but violations are present");
    // Counters: a flat object of dotted stat paths to non-negative
    // integers; which paths exist is the simulator's business.
    const Value *counters = root.find("counters");
    if (!counters || !counters->isObject() || counters->obj.empty())
        return fail(file, "missing or empty counters object");
    for (const auto &[path, value] : counters->obj) {
        if (path.find('.') == std::string::npos)
            return fail(file, "counter " + path + " is not a stat path");
        if (!value.isNumber() || value.number < 0 ||
            std::floor(value.number) != value.number) {
            return fail(file, "counter " + path +
                                  " is not a non-negative integer");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(
            stderr,
            "usage: %s {trace|stats|chaos} FILE...\n",
            argv[0]);
        return 2;
    }
    std::string mode = argv[1];
    if (mode != "trace" && mode != "stats" && mode != "chaos") {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 2;
    }

    for (int i = 2; i < argc; ++i) {
        std::string path = argv[i];
        std::string text;
        if (!readFile(path, text)) {
            fail(path, "cannot read");
            continue;
        }
        Value root;
        try {
            root = shrimp::json::parse(text);
        } catch (const std::exception &e) {
            fail(path, std::string("JSON parse error: ") + e.what());
            continue;
        }
        if (mode == "trace")
            validateTrace(path, root);
        else if (mode == "chaos")
            validateChaos(path, root);
        else
            validateStats(path, root);
        if (g_errors == 0)
            std::printf("%s: ok\n", path.c_str());
    }
    return g_errors ? 1 : 0;
}
