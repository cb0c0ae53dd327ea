#include "scsql/lexer.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "util/strings.hpp"

namespace scsq::scsql {

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::kEnd: return "end of input";
    case Tok::kIdent: return "identifier";
    case Tok::kInt: return "integer literal";
    case Tok::kReal: return "real literal";
    case Tok::kString: return "string literal";
    case Tok::kSelect: return "'select'";
    case Tok::kFrom: return "'from'";
    case Tok::kWhere: return "'where'";
    case Tok::kAnd: return "'and'";
    case Tok::kIn: return "'in'";
    case Tok::kCreate: return "'create'";
    case Tok::kFunction: return "'function'";
    case Tok::kAs: return "'as'";
    case Tok::kBag: return "'bag'";
    case Tok::kOf: return "'of'";
    case Tok::kLParen: return "'('";
    case Tok::kRParen: return "')'";
    case Tok::kLBrace: return "'{'";
    case Tok::kRBrace: return "'}'";
    case Tok::kComma: return "','";
    case Tok::kSemicolon: return "';'";
    case Tok::kEq: return "'='";
    case Tok::kNe: return "'!='";
    case Tok::kLt: return "'<'";
    case Tok::kLe: return "'<='";
    case Tok::kGt: return "'>'";
    case Tok::kGe: return "'>='";
    case Tok::kPlus: return "'+'";
    case Tok::kMinus: return "'-'";
    case Tok::kStar: return "'*'";
    case Tok::kSlash: return "'/'";
    case Tok::kArrow: return "'->'";
  }
  return "?";
}

namespace {
const std::unordered_map<std::string, Tok>& keywords() {
  static const std::unordered_map<std::string, Tok> kMap = {
      {"select", Tok::kSelect}, {"from", Tok::kFrom},     {"where", Tok::kWhere},
      {"and", Tok::kAnd},       {"in", Tok::kIn},         {"create", Tok::kCreate},
      {"function", Tok::kFunction}, {"as", Tok::kAs},     {"bag", Tok::kBag},
      {"of", Tok::kOf},
  };
  return kMap;
}
}  // namespace

Lexer::Lexer(std::string_view source) : source_(source) {}

char Lexer::peek(int ahead) const {
  std::size_t i = offset_ + static_cast<std::size_t>(ahead);
  return i < source_.size() ? source_[i] : '\0';
}

char Lexer::advance() {
  char c = source_[offset_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::skip_space_and_comments() {
  while (!at_end()) {
    char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
    } else if (c == '-' && peek(1) == '-') {
      while (!at_end() && peek() != '\n') advance();
    } else {
      return;
    }
  }
}

std::vector<Token> Lexer::lex_all() {
  std::vector<Token> out;
  while (true) {
    Token t = next();
    out.push_back(t);
    if (t.kind == Tok::kEnd) return out;
  }
}

Token Lexer::next() {
  skip_space_and_comments();
  Token t;
  t.pos = pos();
  if (at_end()) {
    t.kind = Tok::kEnd;
    return t;
  }
  char c = peek();

  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    std::string word;
    // Identifiers are [alpha_][alnum_]*, plus '.'-joined segments for
    // namespaced call names (system.metrics). The dot is consumed only
    // when it starts another identifier segment, so `count(s).` still
    // reports the stray dot instead of silently eating it.
    while (!at_end()) {
      const char p = peek();
      if (std::isalnum(static_cast<unsigned char>(p)) || p == '_') {
        word.push_back(advance());
      } else if (p == '.' && (std::isalpha(static_cast<unsigned char>(peek(1))) ||
                              peek(1) == '_')) {
        word.push_back(advance());
      } else {
        break;
      }
    }
    auto lower = util::to_lower(word);
    auto it = keywords().find(lower);
    if (it != keywords().end()) {
      t.kind = it->second;
    } else {
      t.kind = Tok::kIdent;
      t.text = std::move(word);
    }
    return t;
  }

  if (std::isdigit(static_cast<unsigned char>(c))) {
    std::string num;
    bool is_real = false;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) num.push_back(advance());
    if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
      is_real = true;
      num.push_back(advance());
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) num.push_back(advance());
    }
    if (peek() == 'e' || peek() == 'E') {
      int look = 1;
      if (peek(look) == '+' || peek(look) == '-') ++look;
      if (std::isdigit(static_cast<unsigned char>(peek(look)))) {
        is_real = true;
        num.push_back(advance());  // e
        if (peek() == '+' || peek() == '-') num.push_back(advance());
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) num.push_back(advance());
      }
    }
    if (is_real) {
      t.kind = Tok::kReal;
      // strtod gives infinity past the double range; a literal below it
      // underflows to a finite value, which stays.
      t.real_val = std::strtod(num.c_str(), nullptr);
      if (!std::isfinite(t.real_val)) {
        throw Error("real literal " + num + " is out of range", t.pos);
      }
    } else {
      t.kind = Tok::kInt;
      // `num` is all digits, so the one possible failure is a value past
      // int64.
      const auto res = std::from_chars(num.data(), num.data() + num.size(), t.int_val);
      if (res.ec != std::errc{}) throw Error("integer literal " + num + " is out of range", t.pos);
    }
    return t;
  }

  if (c == '\'' || c == '"') {
    char quote = advance();
    std::string s;
    while (!at_end() && peek() != quote) s.push_back(advance());
    if (at_end()) throw Error("unterminated string literal", t.pos);
    advance();  // closing quote
    t.kind = Tok::kString;
    t.text = std::move(s);
    return t;
  }

  advance();
  switch (c) {
    case '(': t.kind = Tok::kLParen; return t;
    case ')': t.kind = Tok::kRParen; return t;
    case '{': t.kind = Tok::kLBrace; return t;
    case '}': t.kind = Tok::kRBrace; return t;
    case ',': t.kind = Tok::kComma; return t;
    case ';': t.kind = Tok::kSemicolon; return t;
    case '=': t.kind = Tok::kEq; return t;
    case '+': t.kind = Tok::kPlus; return t;
    case '*': t.kind = Tok::kStar; return t;
    case '/': t.kind = Tok::kSlash; return t;
    case '-':
      if (peek() == '>') {
        advance();
        t.kind = Tok::kArrow;
      } else {
        t.kind = Tok::kMinus;
      }
      return t;
    case '!':
      if (peek() == '=') {
        advance();
        t.kind = Tok::kNe;
        return t;
      }
      throw Error("unexpected character '!'", t.pos);
    case '<':
      if (peek() == '=') {
        advance();
        t.kind = Tok::kLe;
      } else {
        t.kind = Tok::kLt;
      }
      return t;
    case '>':
      if (peek() == '=') {
        advance();
        t.kind = Tok::kGe;
      } else {
        t.kind = Tok::kGt;
      }
      return t;
    default:
      throw Error(std::string("unexpected character '") + c + "'", t.pos);
  }
}

}  // namespace scsq::scsql
