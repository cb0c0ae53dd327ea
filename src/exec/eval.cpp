#include "exec/eval.hpp"

#include "funcs/textgen.hpp"

namespace scsq::exec {
namespace {

using catalog::Bag;
using catalog::Kind;
using catalog::Object;
using scsql::BinOp;
using scsql::Error;
using scsql::ExprKind;
using scsql::ExprPtr;

// An operand of an arithmetic or ordering operator as a number. Any
// other kind is an error at the operator.
double numeric_operand(BinOp op, const Object& v, scsql::SourcePos pos) {
  if (v.kind() != Kind::kInt && v.kind() != Kind::kReal) {
    throw Error(std::string("operator ") + scsql::binop_name(op) + " needs numbers, not " +
                    catalog::kind_name(v.kind()),
                pos);
  }
  return v.as_number();
}

Object eval_binary(BinOp op, const Object& lhs, const Object& rhs, scsql::SourcePos pos) {
  if (op == BinOp::kEq) return Object{lhs == rhs};
  if (op == BinOp::kNe) return Object{!(lhs == rhs)};
  const double a = numeric_operand(op, lhs, pos);
  const double b = numeric_operand(op, rhs, pos);
  const bool both_int = lhs.kind() == Kind::kInt && rhs.kind() == Kind::kInt;
  // Integer arithmetic is checked: a result outside int64 is an error.
  std::int64_t r = 0;
  auto checked = [&](bool overflow) {
    if (overflow) throw Error(std::string("integer overflow in ") + scsql::binop_name(op), pos);
    return Object{r};
  };
  switch (op) {
    case BinOp::kAdd:
      if (both_int) return checked(__builtin_add_overflow(lhs.as_int(), rhs.as_int(), &r));
      return Object{a + b};
    case BinOp::kSub:
      if (both_int) return checked(__builtin_sub_overflow(lhs.as_int(), rhs.as_int(), &r));
      return Object{a - b};
    case BinOp::kMul:
      if (both_int) return checked(__builtin_mul_overflow(lhs.as_int(), rhs.as_int(), &r));
      return Object{a * b};
    case BinOp::kDiv:
      if (b == 0.0) throw Error("division by zero", pos);
      if (both_int) {
        const std::int64_t x = lhs.as_int();
        const std::int64_t y = rhs.as_int();
        // x / -1 is -x, which overflows for INT64_MIN (as does x % -1).
        if (y == -1) return checked(__builtin_sub_overflow(std::int64_t{0}, x, &r));
        if (x % y == 0) return Object{x / y};
      }
      return Object{a / b};
    case BinOp::kLt:
      return Object{a < b};
    case BinOp::kLe:
      return Object{a <= b};
    case BinOp::kGt:
      return Object{a > b};
    case BinOp::kGe:
      return Object{a >= b};
    case BinOp::kEq:
    case BinOp::kNe:
      break;  // answered above
  }
  throw Error("unknown operator", pos);
}

Object eval_call(const scsql::Expr& call, const Env& env, hw::Machine* machine) {
  auto arg = [&](std::size_t i) { return eval_const(call.args.at(i), env, machine); };
  auto need_args = [&](std::size_t n) {
    if (call.args.size() != n) {
      throw Error(call.name + "() takes " + std::to_string(n) + " argument(s)", call.pos);
    }
  };

  if (call.name == "iota") {
    // iota(n, m): all integers from n to m (paper §2.4).
    need_args(2);
    const auto lo = arg(0);
    const auto hi = arg(1);
    if (lo.kind() != Kind::kInt || hi.kind() != Kind::kInt) {
      throw Error("iota() arguments must be integers", call.pos);
    }
    Bag out;
    for (std::int64_t v = lo.as_int(); v <= hi.as_int(); ++v) out.emplace_back(v);
    return Object{std::move(out)};
  }

  if (call.name == "filename") {
    // The grep example's filename table.
    need_args(1);
    const auto idx = arg(0);
    if (idx.kind() != Kind::kInt) throw Error("filename() index must be an integer",
                                              call.pos);
    return Object{funcs::filename_for(idx.as_int())};
  }

  if (is_allocation_function(call.name)) {
    if (machine == nullptr) {
      throw Error(call.name + "() requires a cluster coordinator (no machine attached)",
                  call.pos);
    }
    if (call.name == "urr") {
      // urr(cl): round-robin stream of available nodes of cluster cl.
      need_args(1);
      const auto cl = arg(0);
      if (cl.kind() != Kind::kStr || !machine->has_cluster(cl.as_str())) {
        throw Error("urr() needs a cluster name ('fe', 'be', 'bg')", call.pos);
      }
      auto& cndb = machine->cndb(cl.as_str());
      Bag out;
      for (int n : cndb.round_robin_available(cndb.node_count())) out.emplace_back(n);
      return Object{std::move(out)};
    }
    if (call.name == "inPset" || call.name == "inpset") {
      // inPset(k): compute nodes of BlueGene pset k.
      need_args(1);
      const auto k = arg(0);
      if (k.kind() != Kind::kInt) throw Error("inPset() takes a pset number", call.pos);
      auto& cndb = machine->cndb(hw::kBlueGene);
      if (k.as_int() < 0 || k.as_int() >= cndb.pset_count()) {
        throw Error("pset " + std::to_string(k.as_int()) + " out of range", call.pos);
      }
      Bag out;
      for (int n : cndb.nodes_in_pset(static_cast<int>(k.as_int()))) out.emplace_back(n);
      return Object{std::move(out)};
    }
    // psetrr(): successive nodes from successive psets, round-robin.
    need_args(0);
    auto& cndb = machine->cndb(hw::kBlueGene);
    Bag out;
    for (int n : cndb.pset_round_robin(cndb.node_count())) out.emplace_back(n);
    return Object{std::move(out)};
  }

  if (call.name == "sp" || call.name == "spv") {
    throw Error(call.name + "() cannot be evaluated in a constant context", call.pos);
  }
  throw Error("unknown function '" + call.name + "' in constant context", call.pos);
}

}  // namespace

bool is_allocation_function(const std::string& name) {
  return name == "urr" || name == "inPset" || name == "inpset" || name == "psetrr";
}

Object eval_const(const ExprPtr& expr, const Env& env, hw::Machine* machine) {
  SCSQ_CHECK(expr != nullptr) << "null expression";
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return expr->literal;
    case ExprKind::kVar: {
      auto it = env.find(expr->name);
      if (it == env.end()) throw Error("unknown variable '" + expr->name + "'", expr->pos);
      return it->second;
    }
    case ExprKind::kBagCtor: {
      Bag bag;
      bag.reserve(expr->args.size());
      for (const auto& a : expr->args) bag.push_back(eval_const(a, env, machine));
      return Object{std::move(bag)};
    }
    case ExprKind::kBinary:
      return eval_binary(expr->op,
                         eval_const(expr->args[0], env, machine),
                         eval_const(expr->args[1], env, machine), expr->pos);
    case ExprKind::kNeg: {
      Object v = eval_const(expr->args[0], env, machine);
      if (v.kind() == Kind::kReal) return Object{-v.as_real()};
      // Integers negate as 0 - v, checked; other kinds are an error.
      return eval_binary(BinOp::kSub, Object{std::int64_t{0}}, v, expr->pos);
    }
    case ExprKind::kCall:
      return eval_call(*expr, env, machine);
    case ExprKind::kSelect:
      throw Error("select cannot be evaluated in a constant context", expr->pos);
  }
  throw Error("unhandled expression kind", expr->pos);
}

}  // namespace scsq::exec
