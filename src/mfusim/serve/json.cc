/**
 * @file
 * JSON parser / writer implementation.
 */

#include "mfusim/serve/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "mfusim/core/error.hh"
#include "mfusim/obs/trace_event.hh"

namespace mfusim
{

namespace
{

[[noreturn]] void
badKind(const char *wanted)
{
    throw ServeError(400, std::string("expected JSON ") + wanted);
}

} // namespace

bool
Json::asBool() const
{
    if (kind_ != Kind::kBool)
        badKind("boolean");
    return bool_;
}

double
Json::asNumber() const
{
    if (kind_ != Kind::kNumber)
        badKind("number");
    return number_;
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::kString)
        badKind("string");
    return string_;
}

const std::vector<Json> &
Json::items() const
{
    if (kind_ != Kind::kArray)
        badKind("array");
    return array_;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (kind_ != Kind::kObject)
        badKind("object");
    return object_;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    for (const auto &[name, value] : object_)
        if (name == key)
            return &value;
    return nullptr;
}

Json &
Json::push(Json value)
{
    if (kind_ != Kind::kArray)
        badKind("array");
    array_.push_back(std::move(value));
    return *this;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (kind_ != Kind::kObject)
        badKind("object");
    for (auto &[name, existing] : object_) {
        if (name == key) {
            existing = std::move(value);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(value));
    return *this;
}

std::string
jsonFormatNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    // Integral values print without an exponent or trailing ".0" so
    // counters look like counters.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Json::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        break;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::kNumber:
        out += jsonFormatNumber(number_);
        break;
      case Kind::kString:
        out += '"';
        out += jsonEscape(string_);
        out += '"';
        break;
      case Kind::kArray: {
        out += '[';
        bool first = true;
        for (const Json &item : array_) {
            if (!first)
                out += ',';
            item.dumpTo(out);
            first = false;
        }
        out += ']';
        break;
      }
      case Kind::kObject: {
        out += '{';
        bool first = true;
        for (const auto &[key, value] : object_) {
            if (!first)
                out += ',';
            out += '"';
            out += jsonEscape(key);
            out += "\":";
            value.dumpTo(out);
            first = false;
        }
        out += '}';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

// ------------------------------------------------------------------ parser

namespace
{

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    parse()
    {
        skipSpace();
        Json value = parseValue(0);
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return value;
    }

  private:
    static constexpr int kMaxDepth = 32;

    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ServeError(400, "malformed JSON at line " +
                                  std::to_string(line) + " column " +
                                  std::to_string(col) + ": " +
                                  message);
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    char
    next()
    {
        if (atEnd())
            fail("unexpected end of input");
        return text_[pos_++];
    }

    void
    skipSpace()
    {
        while (!atEnd()) {
            const char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    void
    expect(const char *literal)
    {
        for (const char *p = literal; *p; ++p)
            if (atEnd() || next() != *p)
                fail(std::string("expected '") + literal + "'");
    }

    Json
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        if (atEnd())
            fail("unexpected end of input");
        switch (peek()) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return Json(parseString());
          case 't':
            expect("true");
            return Json(true);
          case 'f':
            expect("false");
            return Json(false);
          case 'n':
            expect("null");
            return Json();
          default:
            return parseNumber();
        }
    }

    Json
    parseObject(int depth)
    {
        ++pos_;     // '{'
        Json object = Json::object();
        skipSpace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return object;
        }
        for (;;) {
            skipSpace();
            if (atEnd() || peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipSpace();
            if (next() != ':')
                fail("expected ':' after object key");
            skipSpace();
            object.set(key, parseValue(depth + 1));
            skipSpace();
            const char c = next();
            if (c == '}')
                return object;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json
    parseArray(int depth)
    {
        ++pos_;     // '['
        Json array = Json::array();
        skipSpace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return array;
        }
        for (;;) {
            skipSpace();
            array.push(parseValue(depth + 1));
            skipSpace();
            const char c = next();
            if (c == ']')
                return array;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        ++pos_;     // opening quote
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = next();
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = next();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // are not combined; the request schema is ASCII).
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xC0 | (code >> 6));
                    out += char(0x80 | (code & 0x3F));
                } else {
                    out += char(0xE0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3F));
                    out += char(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        bool digits = false;
        while (!atEnd() && peek() >= '0' && peek() <= '9') {
            ++pos_;
            digits = true;
        }
        if (!atEnd() && peek() == '.') {
            ++pos_;
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!digits)
            fail("invalid value");
        const std::string token =
            text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("invalid number '" + token + "'");
        return Json(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace mfusim
