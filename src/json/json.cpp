#include "json/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sys/procfs.hpp"

namespace synapse::json {

Value::Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::Null;
    case 1: return Type::Bool;
    case 2: return Type::Number;
    case 3: return Type::String;
    case 4: return Type::Array;
    default: return Type::Object;
  }
}

namespace {
[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null", "bool", "number",
                                "string", "array", "object"};
  throw JsonError(std::string("expected ") + want + ", got " +
                  names[static_cast<int>(got)]);
}
}  // namespace

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool", type());
}

double Value::as_double() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  type_error("number", type());
}

int64_t Value::as_int() const { return static_cast<int64_t>(as_double()); }
uint64_t Value::as_uint() const {
  const double d = as_double();
  return d <= 0 ? 0 : static_cast<uint64_t>(d);
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", type());
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

Array& Value::as_array() {
  if (Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

Object& Value::as_object() {
  if (Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

const Value& Value::operator[](const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing key: " + key);
  return it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

bool Value::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) > 0;
}

const Value& Value::at(size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) {
    throw JsonError("array index " + std::to_string(index) + " out of range " +
                    std::to_string(arr.size()));
  }
  return arr[index];
}

size_t Value::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

double Value::get_or(const std::string& key, double dflt) const {
  if (!contains(key)) return dflt;
  const Value& v = (*this)[key];
  return v.is_number() ? v.as_double() : dflt;
}

std::string Value::get_or(const std::string& key,
                          const std::string& dflt) const {
  if (!contains(key)) return dflt;
  const Value& v = (*this)[key];
  return v.is_string() ? v.as_string() : dflt;
}

bool Value::get_or(const std::string& key, bool dflt) const {
  if (!contains(key)) return dflt;
  const Value& v = (*this)[key];
  return v.is_bool() ? v.as_bool() : dflt;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("parse error at line " + std::to_string(line) + ":" +
                    std::to_string(col) + ": " + msg);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    const size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = next();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs are passed through as two 3-byte sequences, which is
            // sufficient for profile metadata).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Value parse_number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    char* end = nullptr;
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Value(v);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/Inf; null is the conventional stand-in
    return;
  }
  // Integers print without a decimal point for readability and stability.
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

/// Appends `n` spaces without materializing a pad string per node.
void dump_pad(size_t n, std::string& out) { out.append(n, ' '); }

void dump_value(const Value& v, int indent, int depth, std::string& out) {
  const size_t pad =
      indent > 0 ? static_cast<size_t>(indent) * (static_cast<size_t>(depth) + 1)
                 : 0;
  const size_t close_pad =
      indent > 0 ? static_cast<size_t>(indent) * static_cast<size_t>(depth) : 0;
  const char* nl = indent > 0 ? "\n" : "";
  const char* kv_sep = indent > 0 ? ": " : ":";

  switch (v.type()) {
    case Value::Type::Null: out += "null"; break;
    case Value::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Type::Number: dump_number(v.as_double(), out); break;
    case Value::Type::String: dump_string(v.as_string(), out); break;
    case Value::Type::Array: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (size_t i = 0; i < arr.size(); ++i) {
        dump_pad(pad, out);
        dump_value(arr[i], indent, depth + 1, out);
        if (i + 1 < arr.size()) out += ',';
        out += nl;
      }
      dump_pad(close_pad, out);
      out += ']';
      break;
    }
    case Value::Type::Object: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      size_t i = 0;
      for (const auto& [key, val] : obj) {
        dump_pad(pad, out);
        dump_string(key, out);
        out += kv_sep;
        dump_value(val, indent, depth + 1, out);
        if (++i < obj.size()) out += ',';
        out += nl;
      }
      dump_pad(close_pad, out);
      out += '}';
      break;
    }
  }
}

/// Serialized-size guess for the reserve() in dump(): exact enough that
/// a compact profile dump does no (or one) growth reallocation, cheap
/// enough that the walk is a fraction of the serialization itself.
size_t estimate_size(const Value& v, int indent, int depth) {
  const size_t per_entry =
      indent > 0 ? static_cast<size_t>(indent) * (static_cast<size_t>(depth) + 1) + 2
                 : 1;
  switch (v.type()) {
    case Value::Type::Null: return 4;
    case Value::Type::Bool: return 5;
    case Value::Type::Number: return 20;  // "%.17g" worst case ~ 24
    case Value::Type::String: return v.as_string().size() + 8;
    case Value::Type::Array: {
      size_t n = 2 + per_entry;
      for (const auto& item : v.as_array()) {
        n += estimate_size(item, indent, depth + 1) + per_entry;
      }
      return n;
    }
    case Value::Type::Object: {
      size_t n = 2 + per_entry;
      for (const auto& [key, val] : v.as_object()) {
        n += key.size() + 4 + estimate_size(val, indent, depth + 1) + per_entry;
      }
      return n;
    }
  }
  return 8;
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string dump(const Value& value, int indent) {
  // One preallocated output buffer for the whole document: the writer
  // only ever appends, so reserving the estimate up front turns the
  // former repeated grow-and-copy cycles (worst on profile dumps, whose
  // sample arrays are long) into at most one allocation.
  std::string out;
  out.reserve(estimate_size(value, indent, 0));
  dump_value(value, indent, 0, out);
  return out;
}

Value load_file(const std::string& path) {
  const auto content = sys::slurp_file(path);
  if (!content) throw JsonError("cannot read file: " + path);
  return parse(*content);
}

void save_file(const std::string& path, const Value& value, int indent) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw JsonError("cannot write file: " + path);
  out << dump(value, indent);
  if (indent > 0) out << '\n';
  if (!out) throw JsonError("short write: " + path);
}

}  // namespace synapse::json
