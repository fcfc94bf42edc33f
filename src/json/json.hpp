#pragma once
// Self-contained JSON value model, parser and writer.
//
// Profiles, resource specs and the document store all serialize through
// this module; it deliberately has no external dependencies. Numbers are
// stored as double (adequate: profile counters stay well below 2^53).

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sys/error.hpp"

namespace synapse::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps object keys ordered, making serialization deterministic
/// (important for the docstore's content-size accounting and for tests).
using Object = std::map<std::string, Value>;

/// Raised on malformed JSON input or type mismatches during access.
class JsonError : public sys::SynapseError {
 public:
  explicit JsonError(const std::string& what) : SynapseError(what) {}
};

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int v) : data_(static_cast<double>(v)) {}
  Value(long v) : data_(static_cast<double>(v)) {}
  Value(long long v) : data_(static_cast<double>(v)) {}
  Value(unsigned v) : data_(static_cast<double>(v)) {}
  Value(unsigned long v) : data_(static_cast<double>(v)) {}
  Value(unsigned long long v) : data_(static_cast<double>(v)) {}
  Value(double v) : data_(v) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_number() const { return type() == Type::Number; }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  /// Checked accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_double() const;
  int64_t as_int() const;
  uint64_t as_uint() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access. const operator[] throws on a missing key;
  /// the non-const form inserts null (like std::map) and converts a null
  /// value into an object first.
  const Value& operator[](const std::string& key) const;
  Value& operator[](const std::string& key);
  bool contains(const std::string& key) const;

  /// Array element access with bounds checking.
  const Value& at(size_t index) const;
  size_t size() const;

  /// Lookup with default for optional fields.
  double get_or(const std::string& key, double dflt) const;
  std::string get_or(const std::string& key, const std::string& dflt) const;
  bool get_or(const std::string& key, bool dflt) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parse a JSON document. Throws JsonError with line/column on failure.
/// The text is only read during the call; the result owns its data.
Value parse(std::string_view text);

/// Serialize. `indent` <= 0 produces compact output.
std::string dump(const Value& value, int indent = 0);

/// File helpers. Throws JsonError / SystemError.
Value load_file(const std::string& path);
void save_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace synapse::json
