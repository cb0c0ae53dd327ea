// Minimal JSON parser (RFC 8259 subset, no external dependencies) and
// the two writers every JSON exporter shares.
//
// The parser exists for the observability tooling: metrics_diff parses
// bench baselines and run records, and tests round-trip trace/metrics
// exports through it as a structural validity check. It is a strict
// parser — trailing garbage, unterminated strings, bad escapes, and
// malformed numbers all throw — which is exactly what a validity check
// wants. Not built for speed; do not put it on a simulation hot path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace scsq::util::json {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return boolean_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& as_array() const { return array_; }
  /// Object members in document order.
  const std::vector<std::pair<std::string, Value>>& as_object() const { return object_; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  // Construction (parser + tests).
  static Value make_null() { return Value(Type::kNull); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  explicit Value(Type t) : type_(t) {}

  Type type_ = Type::kNull;
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Parses one complete JSON document; throws ParseError on malformed
/// input (including trailing non-whitespace).
Value parse(std::string_view text);

/// Flattens every numeric leaf into path -> value, with object members
/// joined by '.' and array elements as [i]. Used by metrics_diff to
/// compare two documents structurally.
std::map<std::string, double> numeric_leaves(const Value& v);

/// Writes `s` as the body of a JSON string, without the quotes: '"' and
/// '\\' get a backslash, control characters become \u00XX (a raw
/// newline in a name would otherwise make the document invalid).
void write_escaped(std::ostream& os, std::string_view s);

/// write_escaped between double quotes.
void write_string(std::ostream& os, std::string_view s);

/// Writes `v` in the shortest form that parses back to the same double,
/// whatever the stream's precision. JSON numbers must be finite, so a
/// non-finite value (an unbounded histogram bucket, a rate over a
/// zero-length span) is written as the string "inf", "-inf" or "nan".
void write_number(std::ostream& os, double v);

}  // namespace scsq::util::json
