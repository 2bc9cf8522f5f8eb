#include "sim/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace shrimp
{
namespace json
{

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

const Value *
Value::find(const std::string &key) const
{
    if (type != Type::OBJECT)
        return nullptr;
    for (const auto &kv : obj) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    Value
    run()
    {
        Value v = parseValue(0);
        skipWs();
        if (_pos != _text.size())
            fail("trailing data");
        return v;
    }

  private:
    /** Deepest array/object nesting accepted. Each level recurses
     *  once, so the cap turns hostile input into a parse error rather
     *  than a stack overflow; every artifact nests at most 4 deep. */
    static constexpr unsigned maxDepth = 256;

    [[noreturn]] void
    fail(const char *what)
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(_pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
    }

    char
    peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++_pos;
    }

    bool
    consumeWord(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (_text.compare(_pos, n, word) != 0)
            return false;
        _pos += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                fail("unterminated string");
            char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            char e = _text[_pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u':
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                _pos += 4;
                out += '?';     // codepoints flattened; fine for tests
                break;
              default:
                fail("bad escape character");
            }
        }
    }

    /** Parse one value whose enclosing arrays/objects number @p depth. */
    Value
    parseValue(unsigned depth)
    {
        skipWs();
        char c = peek();
        if ((c == '{' || c == '[') && depth == maxDepth)
            fail("nesting too deep");
        Value v;
        if (c == '{') {
            ++_pos;
            v.type = Value::Type::OBJECT;
            skipWs();
            if (peek() == '}') {
                ++_pos;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.obj.emplace_back(std::move(key), parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++_pos;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            ++_pos;
            v.type = Value::Type::ARRAY;
            skipWs();
            if (peek() == ']') {
                ++_pos;
                return v;
            }
            while (true) {
                v.arr.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++_pos;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.type = Value::Type::STRING;
            v.str = parseString();
            return v;
        }
        if (consumeWord("true")) {
            v.type = Value::Type::BOOLEAN;
            v.boolean = true;
            return v;
        }
        if (consumeWord("false")) {
            v.type = Value::Type::BOOLEAN;
            v.boolean = false;
            return v;
        }
        if (consumeWord("null"))
            return v;

        // Number: delegate validation to strtod on a bounded slice.
        std::size_t start = _pos;
        if (c == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-')) {
            ++_pos;
        }
        if (_pos == start)
            fail("unexpected character");
        std::string num = _text.substr(start, _pos - start);
        char *end = nullptr;
        v.type = Value::Type::NUMBER;
        v.number = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            fail("malformed number");
        return v;
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).run();
}

} // namespace json
} // namespace shrimp
