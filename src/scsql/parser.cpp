#include "scsql/parser.hpp"

#include <optional>
#include <string>

#include "scsql/lexer.hpp"

namespace scsq::scsql {
namespace {

// Deepest expression nesting the parser accepts. Every level costs a few
// stack frames here and in the binder and evaluator, so an unbounded
// depth (20,000 parentheses) overflowed the stack; past this a query is
// an Error instead.
constexpr int kMaxNestingDepth = 1000;

class Parser {
 public:
  explicit Parser(std::string_view source) {
    Lexer lexer(source);
    tokens_ = lexer.lex_all();
  }

  std::vector<Statement> script() {
    std::vector<Statement> out;
    while (!check(Tok::kEnd)) {
      out.push_back(statement());
    }
    return out;
  }

  Statement one_statement() {
    Statement s = statement();
    expect(Tok::kEnd, "expected end of input after statement");
    return s;
  }

  ExprPtr one_expression() {
    ExprPtr e = expr();
    expect(Tok::kEnd, "expected end of input after expression");
    return e;
  }

 private:
  // --- token helpers ---

  const Token& peek(int ahead = 0) const {
    std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool check(Tok kind) const { return peek().kind == kind; }

  bool match(Tok kind) {
    if (!check(kind)) return false;
    ++pos_;
    return true;
  }

  const Token& expect(Tok kind, const char* what) {
    if (!check(kind)) fail_found(what);
    return tokens_[pos_++];
  }

  // The error paths are out of line and build their messages there. The
  // grammar functions from expr() to primary() are on the stack once per
  // nesting level, and a message string built in one of them would
  // enlarge every one of those frames (by kilobytes under
  // AddressSanitizer, enough to overflow the stack before the nesting
  // limit).
  [[noreturn, gnu::noinline]] void fail(const char* message) const {
    throw Error(message, peek().pos);
  }

  /// Throws "<what> (found <next token>)".
  [[noreturn, gnu::noinline]] void fail_found(const char* what) const {
    throw Error(std::string(what) + " (found " + tok_name(peek().kind) + ")", peek().pos);
  }

  [[noreturn, gnu::noinline]] void fail_too_deep() const {
    throw Error("expression nested deeper than " + std::to_string(kMaxNestingDepth) + " levels",
                peek().pos);
  }

  // --- grammar ---

  Statement statement() {
    Statement s;
    if (check(Tok::kCreate)) {
      s.function = create_function();
    } else {
      s.query = expr();
    }
    expect(Tok::kSemicolon, "expected ';' after statement");
    return s;
  }

  std::shared_ptr<const FunctionDef> create_function() {
    auto fn = std::make_shared<FunctionDef>();
    fn->pos = peek().pos;
    expect(Tok::kCreate, "expected 'create'");
    expect(Tok::kFunction, "expected 'function'");
    fn->name = expect(Tok::kIdent, "expected function name").text;
    expect(Tok::kLParen, "expected '(' after function name");
    if (!check(Tok::kRParen)) {
      do {
        fn->params.push_back(decl("expected parameter name"));
      } while (match(Tok::kComma));
    }
    expect(Tok::kRParen, "expected ')' after parameters");
    expect(Tok::kArrow, "expected '->' before return type");
    fn->return_type = type_ref();
    expect(Tok::kAs, "expected 'as' before function body");
    fn->body = expr();
    return fn;
  }

  // `type IDENT`; `missing_name` is the error when the name is absent.
  [[gnu::noinline]] Decl decl(const char* missing_name) {
    Decl d;
    d.pos = peek().pos;
    d.type = type_ref();
    d.name = expect(Tok::kIdent, missing_name).text;
    return d;
  }

  TypeRef type_ref() {
    TypeRef t;
    if (match(Tok::kBag)) {
      expect(Tok::kOf, "expected 'of' after 'bag'");
      t.is_bag = true;
    }
    Token name = expect(Tok::kIdent, "expected type name");
    if (name.text == "integer" || name.text == "int") {
      t.name = TypeName::kInteger;
    } else if (name.text == "real" || name.text == "double") {
      t.name = TypeName::kReal;
    } else if (name.text == "string" || name.text == "charstring") {
      t.name = TypeName::kString;
    } else if (name.text == "boolean") {
      t.name = TypeName::kBoolean;
    } else if (name.text == "sp") {
      t.name = TypeName::kSp;
    } else if (name.text == "stream") {
      t.name = TypeName::kStream;
    } else if (name.text == "object") {
      t.name = TypeName::kObject;
    } else {
      throw Error("unknown type '" + name.text + "'", name.pos);
    }
    return t;
  }

  static std::optional<BinOp> comparison_op(Tok kind) {
    switch (kind) {
      case Tok::kEq: return BinOp::kEq;
      case Tok::kNe: return BinOp::kNe;
      case Tok::kLt: return BinOp::kLt;
      case Tok::kLe: return BinOp::kLe;
      case Tok::kGt: return BinOp::kGt;
      case Tok::kGe: return BinOp::kGe;
      default: return std::nullopt;
    }
  }

  ExprPtr expr() {
    ExprPtr lhs = additive();
    if (auto op = comparison_op(peek().kind)) {
      SourcePos pos = peek().pos;
      ++pos_;
      ExprPtr rhs = additive();
      return make_binary(*op, std::move(lhs), std::move(rhs), pos);
    }
    return lhs;
  }

  ExprPtr additive() {
    ExprPtr lhs = multiplicative();
    while (check(Tok::kPlus) || check(Tok::kMinus)) {
      BinOp op = check(Tok::kPlus) ? BinOp::kAdd : BinOp::kSub;
      SourcePos pos = peek().pos;
      ++pos_;
      lhs = make_binary(op, std::move(lhs), multiplicative(), pos);
    }
    return lhs;
  }

  ExprPtr multiplicative() {
    ExprPtr lhs = unary();
    while (check(Tok::kStar) || check(Tok::kSlash)) {
      BinOp op = check(Tok::kStar) ? BinOp::kMul : BinOp::kDiv;
      SourcePos pos = peek().pos;
      ++pos_;
      lhs = make_binary(op, std::move(lhs), unary(), pos);
    }
    return lhs;
  }

  // Every recursive path of the grammar (parentheses, call arguments, bag
  // elements, selects, unary minus) passes through here, so this is
  // where nesting depth is counted. An error ends the parse, so a throw
  // need not restore depth_.
  ExprPtr unary() {
    if (++depth_ > kMaxNestingDepth) fail_too_deep();
    ExprPtr e;
    if (check(Tok::kMinus)) {
      SourcePos pos = peek().pos;
      ++pos_;
      e = make_neg(unary(), pos);
    } else {
      e = primary();
    }
    --depth_;
    return e;
  }

  // Only the parenthesis case is handled inline: each other case has its
  // own out-of-line function, so one nesting level carries the frame of
  // the construct it actually nests through.
  ExprPtr primary() {
    switch (peek().kind) {
      case Tok::kInt:
      case Tok::kReal:
      case Tok::kString:
        return literal();
      case Tok::kIdent:
        return call_or_var();
      case Tok::kLBrace:
        return bag();
      case Tok::kLParen: {
        ++pos_;
        ExprPtr e = expr();
        expect(Tok::kRParen, "expected ')'");
        return e;
      }
      case Tok::kSelect:
        return select_expr();
      default:
        fail_found("expected expression");
    }
  }

  [[gnu::noinline]] ExprPtr literal() {
    const Token& t = tokens_[pos_++];
    switch (t.kind) {
      case Tok::kInt:
        return make_literal(catalog::Object{t.int_val}, t.pos);
      case Tok::kReal:
        return make_literal(catalog::Object{t.real_val}, t.pos);
      default:
        return make_literal(catalog::Object{t.text}, t.pos);
    }
  }

  [[gnu::noinline]] ExprPtr call_or_var() {
    const Token& name = tokens_[pos_++];
    if (!match(Tok::kLParen)) return make_var(name.text, name.pos);
    return make_call(name.text, list(Tok::kRParen, "expected ')' after arguments"), name.pos);
  }

  [[gnu::noinline]] ExprPtr bag() {
    const SourcePos pos = tokens_[pos_++].pos;
    return make_bag(list(Tok::kRBrace, "expected '}' after bag elements"), pos);
  }

  // `expr (',' expr)*`, possibly empty, then `close`.
  std::vector<ExprPtr> list(Tok close, const char* missing_close) {
    std::vector<ExprPtr> items;
    if (!check(close)) {
      do {
        items.push_back(expr());
      } while (match(Tok::kComma));
    }
    expect(close, missing_close);
    return items;
  }

  [[gnu::noinline]] ExprPtr select_expr() {
    SourcePos pos = peek().pos;
    auto sel = std::make_shared<Select>();
    sel->pos = pos;
    expect(Tok::kSelect, "expected 'select'");
    do {
      sel->exprs.push_back(expr());
    } while (match(Tok::kComma));
    if (match(Tok::kFrom)) {
      do {
        sel->decls.push_back(decl("expected variable name in from clause"));
      } while (match(Tok::kComma));
    }
    if (match(Tok::kWhere)) {
      do {
        sel->predicates.push_back(predicate());
      } while (match(Tok::kAnd));
    }
    return make_select(std::move(sel), pos);
  }

  Predicate predicate() {
    Predicate p;
    p.pos = peek().pos;
    p.lhs = additive();  // no comparison inside the lhs itself
    if (match(Tok::kIn)) {
      p.kind = PredKind::kIn;
      p.rhs = expr();
      return p;
    }
    if (auto op = comparison_op(peek().kind)) {
      ++pos_;
      p.kind = PredKind::kCompare;
      p.op = *op;
      p.rhs = expr();
      return p;
    }
    fail("expected '=', comparison or 'in' in predicate");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // unary() calls in progress
};

}  // namespace

std::vector<Statement> parse_script(std::string_view source) {
  return Parser(source).script();
}

Statement parse_statement(std::string_view source) { return Parser(source).one_statement(); }

ExprPtr parse_expression(std::string_view source) { return Parser(source).one_expression(); }

}  // namespace scsq::scsql
