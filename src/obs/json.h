/**
 * @file
 * Minimal JSON value tree, writer, and parser for the observability
 * layer's exports (stats trees, trace lines, interval series).
 *
 * Deliberately small: objects are ordered maps, numbers are doubles
 * (integral values are printed without a decimal point), and parse
 * errors are reported by tryParse() returning nullopt. No external
 * dependencies; everything the simulator exports round-trips.
 */

#ifndef CAMO_OBS_JSON_H
#define CAMO_OBS_JSON_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace camo::obs::json {

/** One JSON value (null, bool, number, string, array, or object). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Array = std::vector<Value>;
    using Object = std::map<std::string, Value>;

    Value() = default;
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double n) : kind_(Kind::Number), num_(n) {}
    Value(std::uint64_t n)
        : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    Value(int n) : kind_(Kind::Number), num_(n) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
    Value(Object o) : kind_(Kind::Object), obj_(std::move(o)) {}

    static Value makeArray() { return Value(Array{}); }
    static Value makeObject() { return Value(Object{}); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }
    const Array &asArray() const { return arr_; }
    const Object &asObject() const { return obj_; }

    /** Object access; creates the key (and coerces to Object). */
    Value &operator[](const std::string &key);
    /** Object lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Array append (coerces to Array). */
    void push(Value v);

    bool operator==(const Value &other) const;
    bool operator!=(const Value &other) const
    {
        return !(*this == other);
    }

    /**
     * Serialize. indent == 0 emits one compact line; indent > 0
     * pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

/** Largest integer toUnsigned() accepts. Numbers are doubles, and
 *  2^53 + 1 reads as 2^53, so 2^53 itself is refused too. */
inline constexpr std::uint64_t kMaxExactInteger = (1ull << 53) - 1;

/** The one definition of a valid integer inside a JSON document: a
 *  non-negative integral number no larger than `max` (and than
 *  kMaxExactInteger); nullopt for anything else. */
std::optional<std::uint64_t>
toUnsigned(const Value &v, std::uint64_t max = kMaxExactInteger);

/** JSON-escape the characters of `s` (no surrounding quotes). */
std::string escape(const std::string &s);

/** Format a double the way dump() does (integers stay integral). */
std::string formatNumber(double v);

/** Parse a complete JSON document; nullopt on any syntax error. */
std::optional<Value> tryParse(const std::string &text);

/** Parse a complete JSON document; panics on syntax errors. */
Value parse(const std::string &text);

} // namespace camo::obs::json

#endif // CAMO_OBS_JSON_H
