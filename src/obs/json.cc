#include "src/obs/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace camo::obs::json {

Value &
Value::operator[](const std::string &key)
{
    if (kind_ != Kind::Object) {
        kind_ = Kind::Object;
        obj_.clear();
    }
    return obj_[key];
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
}

void
Value::push(Value v)
{
    if (kind_ != Kind::Array) {
        kind_ = Kind::Array;
        arr_.clear();
    }
    arr_.push_back(std::move(v));
}

bool
Value::operator==(const Value &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null: return true;
      case Kind::Bool: return bool_ == other.bool_;
      case Kind::Number: return num_ == other.num_;
      case Kind::String: return str_ == other.str_;
      case Kind::Array: return arr_ == other.arr_;
      case Kind::Object: return obj_ == other.obj_;
    }
    return false;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    if (!std::isfinite(v))
        return "null"; // NaN/inf are not representable in JSON
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad =
        indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                     (static_cast<std::size_t>(depth) + 1),
                                 ' ')
                   : std::string();
    const std::string close_pad =
        indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                     static_cast<std::size_t>(depth),
                                 ' ')
                   : std::string();
    const char *nl = indent > 0 ? "\n" : "";

    switch (kind_) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::Number:
        out += formatNumber(num_);
        return;
      case Kind::String:
        out += '"';
        out += escape(str_);
        out += '"';
        return;
      case Kind::Array: {
        if (arr_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            out += pad;
            arr_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < arr_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += ']';
        return;
      }
      case Kind::Object: {
        if (obj_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        out += nl;
        std::size_t i = 0;
        for (const auto &[key, value] : obj_) {
            out += pad;
            out += '"';
            out += escape(key);
            out += "\":";
            if (indent > 0)
                out += ' ';
            value.dumpTo(out, indent, depth + 1);
            if (++i < obj_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += '}';
        return;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a string; pos_ is the cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<Value>
    parseDocument()
    {
        auto v = parseValue();
        if (!v)
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size())
            return std::nullopt; // trailing garbage
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return std::nullopt;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return std::nullopt;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return std::nullopt;
                }
                // The exports only escape control characters, so a
                // plain one-byte decode covers everything we emit.
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                return std::nullopt;
            }
        }
        return std::nullopt; // unterminated string
    }

    std::optional<Value>
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            return std::nullopt;
        const char c = text_[pos_];
        if (c == 'n')
            return literal("null") ? std::optional<Value>(Value())
                                   : std::nullopt;
        if (c == 't')
            return literal("true") ? std::optional<Value>(Value(true))
                                   : std::nullopt;
        if (c == 'f')
            return literal("false") ? std::optional<Value>(Value(false))
                                    : std::nullopt;
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            return Value(std::move(*s));
        }
        if (c == '[') {
            ++pos_;
            Value arr = Value::makeArray();
            skipWs();
            if (consume(']'))
                return arr;
            while (true) {
                auto v = parseValue();
                if (!v)
                    return std::nullopt;
                arr.push(std::move(*v));
                if (consume(']'))
                    return arr;
                if (!consume(','))
                    return std::nullopt;
            }
        }
        if (c == '{') {
            ++pos_;
            Value obj = Value::makeObject();
            skipWs();
            if (consume('}'))
                return obj;
            while (true) {
                skipWs();
                auto key = parseString();
                if (!key || !consume(':'))
                    return std::nullopt;
                auto v = parseValue();
                if (!v)
                    return std::nullopt;
                obj[*key] = std::move(*v);
                if (consume('}'))
                    return obj;
                if (!consume(','))
                    return std::nullopt;
            }
        }
        return parseNumber();
    }

    std::optional<Value>
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return std::nullopt;
        char *end = nullptr;
        const std::string num = text_.substr(start, pos_ - start);
        const double v = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            return std::nullopt;
        return Value(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<Value>
tryParse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Value
parse(const std::string &text)
{
    auto v = tryParse(text);
    camo_assert(v.has_value(), "malformed JSON document");
    return std::move(*v);
}

std::optional<std::uint64_t>
toUnsigned(const Value &v, std::uint64_t max)
{
    if (!v.isNumber())
        return std::nullopt;
    const double d = v.asNumber();
    // Compared as doubles: every bound up to kMaxExactInteger is exact.
    const double limit =
        static_cast<double>(std::min(max, kMaxExactInteger));
    if (!(d >= 0.0 && d <= limit) || d != std::floor(d))
        return std::nullopt;
    return static_cast<std::uint64_t>(d);
}

} // namespace camo::obs::json
