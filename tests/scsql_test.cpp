#include <gtest/gtest.h>

#include <string>

#include "core/scsq.hpp"
#include "scsql/lexer.hpp"
#include "scsql/parser.hpp"

namespace scsq::scsql {
namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

TEST(Lexer, KeywordsCaseInsensitive) {
  Lexer lex("SELECT Select select FROM Where AND in");
  auto toks = lex.lex_all();
  ASSERT_EQ(toks.size(), 8u);  // 7 + end
  EXPECT_EQ(toks[0].kind, Tok::kSelect);
  EXPECT_EQ(toks[1].kind, Tok::kSelect);
  EXPECT_EQ(toks[2].kind, Tok::kSelect);
  EXPECT_EQ(toks[3].kind, Tok::kFrom);
  EXPECT_EQ(toks[4].kind, Tok::kWhere);
  EXPECT_EQ(toks[5].kind, Tok::kAnd);
  EXPECT_EQ(toks[6].kind, Tok::kIn);
}

TEST(Lexer, IdentifiersWithUnderscores) {
  auto toks = Lexer("gen_array _x a1").lex_all();
  EXPECT_EQ(toks[0].text, "gen_array");
  EXPECT_EQ(toks[1].text, "_x");
  EXPECT_EQ(toks[2].text, "a1");
}

TEST(Lexer, NumbersIntAndReal) {
  auto toks = Lexer("42 3.5 1e3 2.5e-2 7").lex_all();
  EXPECT_EQ(toks[0].kind, Tok::kInt);
  EXPECT_EQ(toks[0].int_val, 42);
  EXPECT_EQ(toks[1].kind, Tok::kReal);
  EXPECT_DOUBLE_EQ(toks[1].real_val, 3.5);
  EXPECT_EQ(toks[2].kind, Tok::kReal);
  EXPECT_DOUBLE_EQ(toks[2].real_val, 1000.0);
  EXPECT_EQ(toks[3].kind, Tok::kReal);
  EXPECT_DOUBLE_EQ(toks[3].real_val, 0.025);
  EXPECT_EQ(toks[4].kind, Tok::kInt);
}

TEST(Lexer, BothQuoteStyles) {
  auto toks = Lexer("'bg' \"pattern\"").lex_all();
  EXPECT_EQ(toks[0].kind, Tok::kString);
  EXPECT_EQ(toks[0].text, "bg");
  EXPECT_EQ(toks[1].kind, Tok::kString);
  EXPECT_EQ(toks[1].text, "pattern");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(Lexer("'oops").lex_all(), Error);
}

TEST(Lexer, CommentsSkipped) {
  auto toks = Lexer("select -- a comment\n 1").lex_all();
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].kind, Tok::kSelect);
  EXPECT_EQ(toks[1].kind, Tok::kInt);
}

TEST(Lexer, ArrowAndMinus) {
  auto toks = Lexer("-> - a-b").lex_all();
  EXPECT_EQ(toks[0].kind, Tok::kArrow);
  EXPECT_EQ(toks[1].kind, Tok::kMinus);
  EXPECT_EQ(toks[2].kind, Tok::kIdent);
  EXPECT_EQ(toks[3].kind, Tok::kMinus);
  EXPECT_EQ(toks[4].kind, Tok::kIdent);
}

TEST(Lexer, PositionsTracked) {
  auto toks = Lexer("select\n  foo").lex_all();
  EXPECT_EQ(toks[0].pos.line, 1);
  EXPECT_EQ(toks[0].pos.column, 1);
  EXPECT_EQ(toks[1].pos.line, 2);
  EXPECT_EQ(toks[1].pos.column, 3);
}

TEST(Lexer, BadCharacterThrows) {
  EXPECT_THROW(Lexer("select @").lex_all(), Error);
}

// ---------------------------------------------------------------------
// Parser: expressions
// ---------------------------------------------------------------------

TEST(Parser, LiteralKinds) {
  EXPECT_EQ(parse_expression("42")->literal.as_int(), 42);
  EXPECT_DOUBLE_EQ(parse_expression("2.5")->literal.as_real(), 2.5);
  EXPECT_EQ(parse_expression("'bg'")->literal.as_str(), "bg");
}

TEST(Parser, CallWithArgs) {
  auto e = parse_expression("gen_array(3000000, 100)");
  ASSERT_EQ(e->kind, ExprKind::kCall);
  EXPECT_EQ(e->name, "gen_array");
  ASSERT_EQ(e->args.size(), 2u);
  EXPECT_EQ(e->args[0]->literal.as_int(), 3000000);
}

TEST(Parser, NestedCalls) {
  auto e = parse_expression("streamof(count(extract(a)))");
  ASSERT_EQ(e->kind, ExprKind::kCall);
  EXPECT_EQ(e->name, "streamof");
  EXPECT_EQ(e->args[0]->name, "count");
  EXPECT_EQ(e->args[0]->args[0]->name, "extract");
  EXPECT_EQ(e->args[0]->args[0]->args[0]->kind, ExprKind::kVar);
  EXPECT_EQ(e->args[0]->args[0]->args[0]->name, "a");
}

TEST(Parser, BagConstructor) {
  auto e = parse_expression("merge({a, b})");
  ASSERT_EQ(e->kind, ExprKind::kCall);
  ASSERT_EQ(e->args.size(), 1u);
  EXPECT_EQ(e->args[0]->kind, ExprKind::kBagCtor);
  EXPECT_EQ(e->args[0]->args.size(), 2u);
}

TEST(Parser, ArithmeticPrecedence) {
  auto e = parse_expression("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->op, BinOp::kAdd);
  EXPECT_EQ(e->args[1]->op, BinOp::kMul);
}

TEST(Parser, ComparisonLowestPrecedence) {
  auto e = parse_expression("1 + 2 < 3 * 4");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->op, BinOp::kLt);
}

TEST(Parser, UnaryMinus) {
  auto e = parse_expression("-x");
  EXPECT_EQ(e->kind, ExprKind::kNeg);
  EXPECT_EQ(e->args[0]->name, "x");
}

TEST(Parser, ParenGrouping) {
  auto e = parse_expression("(1 + 2) * 3");
  EXPECT_EQ(e->op, BinOp::kMul);
  EXPECT_EQ(e->args[0]->op, BinOp::kAdd);
}

TEST(Parser, ErrorsCarryPosition) {
  try {
    parse_expression("count(");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_GT(e.pos().column, 1);
  }
}

TEST(Parser, RejectsDanglingInput) {
  EXPECT_THROW(parse_expression("1 2"), Error);
  EXPECT_THROW(parse_statement("select 1; select 2;"), Error);
}

// `select ` + `depth` copies of `open`, a leaf, then every closing `)`.
std::string nested_query(const std::string& open, int depth, const std::string& leaf) {
  std::string q = "select ";
  for (int i = 0; i < depth; ++i) q += open;
  q += leaf;
  q += std::string(static_cast<std::size_t>(depth), ')');
  return q + ";";
}

TEST(Parser, DeepNestingIsAnErrorNotAStackOverflow) {
  // These crashed the shell with SIGSEGV before the parser counted depth.
  for (const auto& [open, depth] : {std::pair<std::string, int>{"(", 20'000},
                                    {"abs(", 10'000},
                                    {"1+(", 10'000}}) {
    SCOPED_TRACE(open);
    try {
      parse_script(nested_query(open, depth, "1"));
      FAIL() << "expected a nesting-depth error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("nested deeper than 1000 levels"),
                std::string::npos)
          << e.what();
      EXPECT_EQ(e.pos().line, 1);
      EXPECT_GT(e.pos().column, 1000);  // at the first level past the limit
    }
  }
  EXPECT_THROW(parse_expression(std::string(20'000, '-') + "1"), Error);
}

TEST(Parser, QueryNested500DeepParsesAndRuns) {
  Scsq scsq;
  auto report = scsq.run(nested_query("1+(", 500, "0"));
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].as_int(), 500);
  report = scsq.run(nested_query("abs(", 500, "-7.5"));
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].as_real(), 7.5);
}

// ---------------------------------------------------------------------
// Parser: selects and the paper's listings
// ---------------------------------------------------------------------

TEST(Parser, SimpleSelect) {
  auto st = parse_statement("select extract(b) from sp a, sp b where b = sp(a) and a = 1;");
  ASSERT_TRUE(st.query);
  ASSERT_EQ(st.query->kind, ExprKind::kSelect);
  const auto& sel = *st.query->select;
  ASSERT_EQ(sel.exprs.size(), 1u);
  ASSERT_EQ(sel.decls.size(), 2u);
  EXPECT_EQ(sel.decls[0].type.name, TypeName::kSp);
  EXPECT_FALSE(sel.decls[0].type.is_bag);
  ASSERT_EQ(sel.predicates.size(), 2u);
  EXPECT_EQ(sel.predicates[0].kind, PredKind::kCompare);
  EXPECT_EQ(sel.predicates[0].op, BinOp::kEq);
}

TEST(Parser, BagOfSpDeclaration) {
  auto st = parse_statement("select 1 from bag of sp a, integer n;");
  const auto& sel = *st.query->select;
  ASSERT_EQ(sel.decls.size(), 2u);
  EXPECT_TRUE(sel.decls[0].type.is_bag);
  EXPECT_EQ(sel.decls[0].type.name, TypeName::kSp);
  EXPECT_EQ(sel.decls[1].type.name, TypeName::kInteger);
}

TEST(Parser, InPredicate) {
  auto st = parse_statement("select i from integer i where i in iota(1, 1000);");
  const auto& sel = *st.query->select;
  ASSERT_EQ(sel.predicates.size(), 1u);
  EXPECT_EQ(sel.predicates[0].kind, PredKind::kIn);
  EXPECT_EQ(sel.predicates[0].lhs->name, "i");
  EXPECT_EQ(sel.predicates[0].rhs->name, "iota");
}

// The paper's intra-BG point-to-point query (§3.1), verbatim layout.
TEST(Parser, PaperPointToPointQuery) {
  auto st = parse_statement(R"(
    select extract(b)
    from sp a, sp b
    where b=sp(streamof(count(extract(a))),
               'bg',0) and
          a=sp(gen_array(3000000,100),'bg',1);
  )");
  const auto& sel = *st.query->select;
  ASSERT_EQ(sel.decls.size(), 2u);
  ASSERT_EQ(sel.predicates.size(), 2u);
  const auto& b_eq = sel.predicates[0];
  EXPECT_EQ(b_eq.lhs->name, "b");
  ASSERT_EQ(b_eq.rhs->name, "sp");
  ASSERT_EQ(b_eq.rhs->args.size(), 3u);
  EXPECT_EQ(b_eq.rhs->args[1]->literal.as_str(), "bg");
  EXPECT_EQ(b_eq.rhs->args[2]->literal.as_int(), 0);
}

// The paper's stream-merging query (§3.1) with x=1, y=2.
TEST(Parser, PaperMergeQuery) {
  auto st = parse_statement(R"(
    Select extract(c)
    from sp a, sp b, sp c
    where c=sp(count(merge({a,b})), 'bg',0)
    and a=sp(gen_array(3000000,100),'bg',1)
    and b=sp(gen_array(3000000,100),'bg',2);
  )");
  const auto& sel = *st.query->select;
  ASSERT_EQ(sel.decls.size(), 3u);
  ASSERT_EQ(sel.predicates.size(), 3u);
  EXPECT_EQ(sel.predicates[0].rhs->args[0]->name, "count");
}

// The paper's Query 1 (§3.2).
TEST(Parser, PaperInboundQuery1) {
  auto st = parse_statement(R"(
    select extract(c) from
    bag of sp a, sp b, sp c,
    integer n
    where c=sp(extract(b), 'bg')
    and   b=sp(count(merge(a)), 'bg')
    and   a=spv(
       (select gen_array(3000000,100)
        from integer i where i in iota(1,n)),
                 'be', 1)
    and n=4;
  )");
  const auto& sel = *st.query->select;
  ASSERT_EQ(sel.decls.size(), 4u);
  EXPECT_TRUE(sel.decls[0].type.is_bag);
  ASSERT_EQ(sel.predicates.size(), 4u);
  const auto& a_eq = sel.predicates[2];
  EXPECT_EQ(a_eq.lhs->name, "a");
  EXPECT_EQ(a_eq.rhs->name, "spv");
  ASSERT_EQ(a_eq.rhs->args.size(), 3u);
  EXPECT_EQ(a_eq.rhs->args[0]->kind, ExprKind::kSelect);
}

// Query 5's psetrr() allocation (§3.2).
TEST(Parser, PaperInboundQuery5Allocation) {
  auto st = parse_statement(R"(
    select extract(c) from
    bag of sp a, bag of sp b, sp c,
    integer n
    where c=sp(streamof(sum(merge(b))), 'bg')
    and b=spv(
      (select streamof(count(extract(p)))
       from sp p
       where p in a),
                 'bg', psetrr())
    and a=spv(
      (select gen_array(3000000,100)
       from integer i where i in iota(1,n)),
                 'be', 1) and n=4;
  )");
  const auto& sel = *st.query->select;
  const auto& b_eq = sel.predicates[1];
  EXPECT_EQ(b_eq.rhs->name, "spv");
  EXPECT_EQ(b_eq.rhs->args[2]->name, "psetrr");
  // The inner select declares `sp p` and uses `p in a`.
  const auto& inner = *b_eq.rhs->args[0]->select;
  ASSERT_EQ(inner.decls.size(), 1u);
  EXPECT_EQ(inner.decls[0].type.name, TypeName::kSp);
  EXPECT_EQ(inner.predicates[0].kind, PredKind::kIn);
}

// The mapreduce grep query (§2.4): a bare select as spv() argument.
TEST(Parser, PaperMapReduceGrep) {
  auto st = parse_statement(R"(
    merge(spv(
        select grep("pattern", filename(i))
        from integer i
        where i in iota(1,1000)));
  )");
  ASSERT_TRUE(st.query);
  EXPECT_EQ(st.query->name, "merge");
  const auto& spv = *st.query->args[0];
  EXPECT_EQ(spv.name, "spv");
  ASSERT_EQ(spv.args.size(), 1u);
  EXPECT_EQ(spv.args[0]->kind, ExprKind::kSelect);
}

// The radix2 FFT function definition (§2.4).
TEST(Parser, PaperRadix2FunctionDef) {
  auto st = parse_statement(R"(
    create function radix2(string s)
                  ->stream
    as select radixcombine(merge({a,b}))
    from sp a, sp b, sp c
    where a=sp(fft(odd (extract(c))))
    and b=sp(fft(even(extract(c))))
    and c=sp(receiver(s));
  )");
  ASSERT_TRUE(st.function);
  EXPECT_EQ(st.function->name, "radix2");
  ASSERT_EQ(st.function->params.size(), 1u);
  EXPECT_EQ(st.function->params[0].type.name, TypeName::kString);
  EXPECT_EQ(st.function->params[0].name, "s");
  EXPECT_EQ(st.function->return_type.name, TypeName::kStream);
  ASSERT_TRUE(st.function->body);
  EXPECT_EQ(st.function->body->kind, ExprKind::kSelect);
}

TEST(Parser, ScriptWithMultipleStatements) {
  auto script = parse_script(R"(
    create function f() -> integer as select 1;
    select f();
  )");
  ASSERT_EQ(script.size(), 2u);
  EXPECT_TRUE(script[0].function);
  EXPECT_TRUE(script[1].query);
}

TEST(Parser, MissingSemicolonThrows) {
  EXPECT_THROW(parse_statement("select 1"), Error);
}

TEST(Parser, UnknownTypeThrows) {
  EXPECT_THROW(parse_statement("select 1 from blob x;"), Error);
}

TEST(Parser, PredicateWithoutOperatorThrows) {
  EXPECT_THROW(parse_statement("select 1 from integer i where i;"), Error);
}

// ---------------------------------------------------------------------
// Printer round-trip: parse(print(parse(q))) == structurally stable
// ---------------------------------------------------------------------

void expect_print_parse_stable(const std::string& query) {
  auto st1 = parse_statement(query);
  ASSERT_TRUE(st1.query);
  std::string printed = st1.query->to_string() + ";";
  auto st2 = parse_statement(printed);
  EXPECT_EQ(st2.query->to_string(), st1.query->to_string()) << printed;
}

TEST(Printer, RoundTripSimple) { expect_print_parse_stable("select 1 + 2 * 3;"); }

TEST(Printer, RoundTripPaperQueries) {
  expect_print_parse_stable(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(3000000,100),'bg',1);");
  expect_print_parse_stable(
      "select extract(c) from bag of sp a, sp b, sp c, integer n "
      "where c=sp(extract(b),'bg') and b=sp(count(merge(a)),'bg') "
      "and a=spv((select gen_array(3000000,100) from integer i "
      "where i in iota(1,n)),'be',1) and n=4;");
}

}  // namespace
}  // namespace scsq::scsql
