/**
 * @file
 * Minimal JSON value model and recursive-descent parser.
 *
 * The serve daemon is zero-external-dependency, so it carries its own
 * JSON: a small immutable-ish value tree (null / bool / number /
 * string / array / object) with an insertion-ordered object
 * representation, a strict parser producing ServeError(400) with a
 * line/column diagnostic on malformed input, and a writer matching
 * the escaping conventions of the metrics exporter.
 *
 * Deliberately NOT a general-purpose library: no comments, no NaN /
 * Infinity literals, 64-bit doubles only, and a fixed recursion
 * depth cap (the request schema is three levels deep; the cap stops
 * a hostile body like "[[[[..." from exhausting the stack).
 */

#ifndef MFUSIM_SERVE_JSON_HH
#define MFUSIM_SERVE_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mfusim
{

/** One JSON value. */
class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };

    Json() : kind_(Kind::kNull) {}
    explicit Json(bool b) : kind_(Kind::kBool), bool_(b) {}
    explicit Json(double n) : kind_(Kind::kNumber), number_(n) {}
    explicit Json(std::int64_t n)
        : kind_(Kind::kNumber), number_(double(n))
    {}
    explicit Json(std::uint64_t n)
        : kind_(Kind::kNumber), number_(double(n))
    {}
    explicit Json(std::string s)
        : kind_(Kind::kString), string_(std::move(s))
    {}
    explicit Json(const char *s)
        : kind_(Kind::kString), string_(s)
    {}

    static Json array() { Json v; v.kind_ = Kind::kArray; return v; }
    static Json object() { Json v; v.kind_ = Kind::kObject; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isBool() const { return kind_ == Kind::kBool; }
    bool isNumber() const { return kind_ == Kind::kNumber; }
    bool isString() const { return kind_ == Kind::kString; }
    bool isArray() const { return kind_ == Kind::kArray; }
    bool isObject() const { return kind_ == Kind::kObject; }

    /** Typed accessors; throw ServeError(400) on a kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Json> &items() const;
    const std::vector<std::pair<std::string, Json>> &members() const;

    /** Object member by key, or nullptr when absent / not object. */
    const Json *find(const std::string &key) const;

    /** Array / object builders. */
    Json &push(Json value);
    Json &set(const std::string &key, Json value);

    /** Compact single-line serialization. */
    std::string dump() const;

  private:
    void dumpTo(std::string &out) const;

    Kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

/**
 * Parse @p text as one JSON document (leading/trailing whitespace
 * allowed, nothing else after the value).
 *
 * @throws ServeError with HTTP status 400 and a "line L column C"
 *         diagnostic on malformed input.
 */
Json parseJson(const std::string &text);

/** Shortest round-trip decimal for a double ("%.17g", finite only). */
std::string jsonFormatNumber(double v);

} // namespace mfusim

#endif // MFUSIM_SERVE_JSON_HH
