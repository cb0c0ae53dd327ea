#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>

namespace scsq::util::json {

Value Value::make_bool(bool b) {
  Value v(Type::kBool);
  v.boolean_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v(Type::kNumber);
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v(Type::kString);
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v(Type::kArray);
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v(Type::kObject);
  v.object_ = std::move(members);
  return v;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const { throw ParseError(what, pos_); }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
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

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value::make_null();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Value::make_object(std::move(members));
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      char esc = next();
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
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair: require the low half immediately after.
            if (next() != '\\' || next() != 'u') fail("unpaired surrogate");
            unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("bad escape sequence");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      char c = next();
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("bad \\u escape digit");
      }
    }
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_digits = digits();
    if (int_digits == 0) fail("bad number");
    // JSON forbids leading zeros on multi-digit integer parts.
    const char first = text_[start] == '-' ? text_[start + 1] : text_[start];
    if (first == '0' && int_digits > 1) fail("leading zero in number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return Value::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void collect_leaves(const Value& v, const std::string& path,
                    std::map<std::string, double>& out) {
  switch (v.type()) {
    case Value::Type::kNumber:
      out[path] = v.as_number();
      break;
    case Value::Type::kObject:
      for (const auto& [k, member] : v.as_object()) {
        collect_leaves(member, path.empty() ? k : path + "." + k, out);
      }
      break;
    case Value::Type::kArray:
      for (std::size_t i = 0; i < v.as_array().size(); ++i) {
        collect_leaves(v.as_array()[i], path + "[" + std::to_string(i) + "]", out);
      }
      break;
    default:
      break;
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::map<std::string, double> numeric_leaves(const Value& v) {
  std::map<std::string, double> out;
  collect_leaves(v, "", out);
  return out;
}

void write_escaped(std::ostream& os, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (u < 0x20) {
      os << "\\u00" << kHex[u >> 4] << kHex[u & 0xF];
    } else {
      os << c;
    }
  }
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  write_escaped(os, s);
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    char buf[32];  // the longest shortest form of a double is 24 characters
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    os.write(buf, res.ptr - buf);
  } else {
    os << '"' << (std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf")) << '"';
  }
}

}  // namespace scsq::util::json
