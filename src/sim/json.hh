/**
 * @file
 * Minimal JSON support: string escaping for the writers (trace export,
 * stats dumps, bench artifacts) and a small DOM parser used by tests
 * and the artifact validator. No external dependencies; the subset is
 * full JSON minus \u surrogate pairs (escapes decode to '?').
 */

#ifndef SHRIMP_SIM_JSON_HH
#define SHRIMP_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace shrimp
{
namespace json
{

/** Escape @p s for embedding inside a JSON string literal. */
std::string escape(const std::string &s);

/** A parsed JSON value (object keys keep their input order). */
struct Value
{
    enum class Type
    {
        NUL,
        BOOLEAN,
        NUMBER,
        STRING,
        ARRAY,
        OBJECT,
    };

    Type type = Type::NUL;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;

    bool isBool() const { return type == Type::BOOLEAN; }
    bool isNumber() const { return type == Type::NUMBER; }
    bool isString() const { return type == Type::STRING; }
    bool isArray() const { return type == Type::ARRAY; }
    bool isObject() const { return type == Type::OBJECT; }

    /** Member lookup on an object; nullptr if absent or not an object. */
    const Value *find(const std::string &key) const;
};

/**
 * Parse @p text as one JSON document.
 *
 * @throws std::runtime_error on malformed input (with an offset).
 */
Value parse(const std::string &text);

} // namespace json
} // namespace shrimp

#endif // SHRIMP_SIM_JSON_HH
