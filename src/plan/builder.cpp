#include "plan/builder.hpp"

#include "plan/introspect_ops.hpp"
#include "plan/lroad_ops.hpp"
#include "plan/operators.hpp"
#include "plan/window_ops.hpp"

namespace scsq::plan {
namespace {

using catalog::Kind;
using catalog::Object;
using scsql::Error;
using scsql::ExprKind;
using scsql::ExprPtr;

/// extract(x): x must evaluate to an SP handle.
OperatorPtr build_extract(const scsql::Expr& call, PlanContext& ctx) {
  if (call.args.size() != 1) throw Error("extract() takes one argument", call.pos);
  Object target = ctx.const_eval(call.args[0]);
  if (target.kind() != Kind::kSp) {
    throw Error("extract() argument must be a stream process", call.pos);
  }
  return std::make_unique<ReceiveOp>(ctx.subscribe(target.as_sp()));
}

/// merge(x): x must evaluate to a bag of SP handles (or a single SP).
OperatorPtr build_merge(const scsql::Expr& call, PlanContext& ctx) {
  if (call.args.size() != 1) throw Error("merge() takes one argument", call.pos);
  Object target = ctx.const_eval(call.args[0]);
  std::vector<transport::ReceiverDriver*> drivers;
  if (target.kind() == Kind::kSp) {
    drivers.push_back(&ctx.subscribe(target.as_sp()));
  } else if (target.kind() == Kind::kBag) {
    for (const auto& el : target.as_bag()) {
      if (el.kind() != Kind::kSp) {
        throw Error("merge() bag must contain stream processes", call.pos);
      }
      drivers.push_back(&ctx.subscribe(el.as_sp()));
    }
  } else {
    throw Error("merge() argument must be a bag of stream processes", call.pos);
  }
  if (drivers.empty()) throw Error("merge() of an empty bag", call.pos);
  return std::make_unique<MergeOp>(ctx, std::move(drivers));
}

OperatorPtr build_radixcombine(const scsql::Expr& call, PlanContext& ctx) {
  if (call.args.size() != 1) throw Error("radixcombine() takes one argument", call.pos);
  // The canonical form is radixcombine(merge({odd_sp, even_sp})): we
  // keep the two legs separate so partial FFTs pair positionally.
  const auto& arg = *call.args[0];
  if (arg.kind == ExprKind::kCall && arg.name == "merge" && arg.args.size() == 1) {
    Object target = ctx.const_eval(arg.args[0]);
    if (target.kind() == Kind::kBag && target.as_bag().size() == 2 &&
        target.as_bag()[0].kind() == Kind::kSp && target.as_bag()[1].kind() == Kind::kSp) {
      auto odd_leg =
          std::make_unique<ReceiveOp>(ctx.subscribe(target.as_bag()[0].as_sp()));
      auto even_leg =
          std::make_unique<ReceiveOp>(ctx.subscribe(target.as_bag()[1].as_sp()));
      return std::make_unique<RadixCombineOp>(ctx, std::move(odd_leg), std::move(even_leg));
    }
  }
  throw Error("radixcombine() expects merge({odd_sp, even_sp})", call.pos);
}

OperatorPtr build_gen_array(const scsql::Expr& call, PlanContext& ctx) {
  if (call.args.size() != 2) throw Error("gen_array(bytes, count) takes two arguments",
                                         call.pos);
  Object bytes = ctx.const_eval(call.args[0]);
  Object count = ctx.const_eval(call.args[1]);
  if (bytes.kind() != Kind::kInt || count.kind() != Kind::kInt) {
    throw Error("gen_array() arguments must be integers", call.pos);
  }
  if (bytes.as_int() < 0) throw Error("gen_array() size must be non-negative", call.pos);
  if (count.as_int() < 0) {
    throw Error("gen_array() count must be non-negative (use gen_stream() for an "
                "unbounded stream)",
                call.pos);
  }
  return std::make_unique<GenArrayOp>(ctx, static_cast<std::uint64_t>(bytes.as_int()),
                                      count.as_int());
}

OperatorPtr build_grep(const scsql::Expr& call, PlanContext& ctx) {
  if (call.args.size() != 2) throw Error("grep(pattern, filename) takes two arguments",
                                         call.pos);
  Object pattern = ctx.const_eval(call.args[0]);
  Object file = ctx.const_eval(call.args[1]);
  if (pattern.kind() != Kind::kStr || file.kind() != Kind::kStr) {
    throw Error("grep() arguments must be strings", call.pos);
  }
  return std::make_unique<GrepOp>(ctx, pattern.as_str(), file.as_str());
}

/// system.metrics/gauges/rates([pattern]): introspection sources, legal
/// only inside a monitor plan (ctx.introspect set by
/// Engine::register_monitor's runner).
OperatorPtr build_introspect(const scsql::Expr& call, PlanContext& ctx) {
  if (ctx.introspect == nullptr) {
    throw Error(call.name + "() is an introspection source and is only available in "
                "monitor queries (\\monitor or Engine::register_monitor)",
                call.pos);
  }
  std::string pattern;
  if (call.args.size() > 1) {
    throw Error(call.name + "([pattern]) takes at most one argument", call.pos);
  }
  if (call.args.size() == 1) {
    Object p = ctx.const_eval(call.args[0]);
    if (p.kind() != Kind::kStr) {
      throw Error(call.name + "() pattern must be a string", call.pos);
    }
    pattern = p.as_str();
  }
  if (call.name == "system.metrics") {
    return std::make_unique<MetricsStreamOp>(ctx, std::move(pattern));
  }
  if (call.name == "system.gauges") {
    return std::make_unique<GaugeStreamOp>(ctx, std::move(pattern));
  }
  return std::make_unique<RateStreamOp>(ctx, std::move(pattern));
}

}  // namespace

OperatorPtr build_plan(const ExprPtr& expr, PlanContext& ctx) {
  SCSQ_CHECK(expr != nullptr) << "null plan expression";
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return std::make_unique<ConstOp>(ctx, expr->literal);
    case ExprKind::kVar:
    case ExprKind::kBinary:
    case ExprKind::kNeg:
    case ExprKind::kBagCtor:
      // Non-streaming: evaluate against the captured environment.
      return std::make_unique<ConstOp>(ctx, ctx.const_eval(expr));
    case ExprKind::kSelect:
      throw Error("nested select inside a stream process plan is not supported",
                  expr->pos);
    case ExprKind::kCall:
      break;
  }

  const auto& name = expr->name;
  if (name == "extract") return build_extract(*expr, ctx);
  if (name == "merge") return build_merge(*expr, ctx);
  if (name == "radixcombine") return build_radixcombine(*expr, ctx);
  if (name == "gen_array") return build_gen_array(*expr, ctx);
  if (name == "grep") return build_grep(*expr, ctx);
  if (name == "count") {
    if (expr->args.size() != 1) throw Error("count() takes one argument", expr->pos);
    return std::make_unique<CountOp>(ctx, build_plan(expr->args[0], ctx));
  }
  if (name == "sum") {
    if (expr->args.size() != 1) throw Error("sum() takes one argument", expr->pos);
    return std::make_unique<SumOp>(ctx, build_plan(expr->args[0], ctx), expr->pos);
  }
  if (name == "streamof") {
    if (expr->args.size() != 1) throw Error("streamof() takes one argument", expr->pos);
    return std::make_unique<PassOp>(build_plan(expr->args[0], ctx));
  }
  if (name == "odd" || name == "even" || name == "fft") {
    if (expr->args.size() != 1) throw Error(name + "() takes one argument", expr->pos);
    auto fn = name == "odd"    ? ArrayMapOp::Fn::kOdd
              : name == "even" ? ArrayMapOp::Fn::kEven
                               : ArrayMapOp::Fn::kFft;
    return std::make_unique<ArrayMapOp>(ctx, ArrayMapOp::Stage{fn, expr->pos},
                                        build_plan(expr->args[0], ctx));
  }
  if (name == "lr_source" || name == "lr_source_acc") {
    // lr_source(vehicles, ticks, seed) / lr_source_acc(..., accident_tick)
    const bool with_accident = name == "lr_source_acc";
    if (expr->args.size() != (with_accident ? 4u : 3u)) {
      throw Error(name + "() takes vehicles, ticks, seed" +
                      std::string(with_accident ? ", accident_tick" : ""),
                  expr->pos);
    }
    lroad::WorkloadParams params;
    auto as_int = [&](std::size_t i, const char* what) {
      Object v = ctx.const_eval(expr->args[i]);
      if (v.kind() != Kind::kInt) throw Error(std::string(what) + " must be an integer",
                                              expr->pos);
      return v.as_int();
    };
    params.vehicles = static_cast<int>(as_int(0, "vehicles"));
    params.ticks = static_cast<int>(as_int(1, "ticks"));
    params.seed = static_cast<std::uint64_t>(as_int(2, "seed"));
    if (with_accident) params.accident_start_tick = static_cast<int>(as_int(3, "tick"));
    return std::make_unique<LrSourceOp>(ctx, params);
  }
  if (name == "lr_lav" || name == "lr_tolls" || name == "lr_accidents") {
    if (expr->args.size() != 2) {
      throw Error(name + "() takes a stream and a window/threshold", expr->pos);
    }
    Object arg = ctx.const_eval(expr->args[1]);
    if (arg.kind() != Kind::kInt) throw Error(name + "() parameter must be an integer",
                                              expr->pos);
    auto child = build_plan(expr->args[0], ctx);
    if (name == "lr_lav") {
      return std::make_unique<LrLavOp>(ctx, std::move(child),
                                       static_cast<int>(arg.as_int()));
    }
    if (name == "lr_tolls") {
      lroad::TollParams tp;
      tp.window_ticks = static_cast<int>(arg.as_int());
      return std::make_unique<LrTollOp>(ctx, std::move(child), tp);
    }
    return std::make_unique<LrAccidentOp>(ctx, std::move(child),
                                          static_cast<int>(arg.as_int()));
  }
  if (name == "gen_stream") {
    // gen_stream(bytes): unbounded stream of synthetic arrays.
    if (expr->args.size() != 1) throw Error("gen_stream(bytes) takes one argument",
                                            expr->pos);
    Object bytes = ctx.const_eval(expr->args[0]);
    if (bytes.kind() != Kind::kInt || bytes.as_int() < 0) {
      throw Error("gen_stream() size must be a non-negative integer", expr->pos);
    }
    return std::make_unique<GenArrayOp>(ctx, static_cast<std::uint64_t>(bytes.as_int()),
                                        /*count=*/-1);
  }
  if (name == "cwindow" || name == "swindow") {
    // cwindow(s, n): tumbling count window; swindow(s, n, k): sliding.
    const bool sliding = name == "swindow";
    if (expr->args.size() != (sliding ? 3u : 2u)) {
      throw Error(name + "() takes a stream and window size(s)", expr->pos);
    }
    Object size = ctx.const_eval(expr->args[1]);
    if (size.kind() != Kind::kInt) throw Error("window size must be an integer", expr->pos);
    std::int64_t slide = size.as_int();
    if (sliding) {
      Object s = ctx.const_eval(expr->args[2]);
      if (s.kind() != Kind::kInt) throw Error("window slide must be an integer", expr->pos);
      slide = s.as_int();
    }
    return std::make_unique<WindowOp>(ctx, build_plan(expr->args[0], ctx), size.as_int(),
                                      slide);
  }
  if (name == "bagsum" || name == "bagavg" || name == "bagmax" || name == "bagmin" ||
      name == "bagcount") {
    if (expr->args.size() != 1) throw Error(name + "() takes one argument", expr->pos);
    auto fn = name == "bagsum"   ? BagAggOp::Fn::kSum
              : name == "bagavg" ? BagAggOp::Fn::kAvg
              : name == "bagmax" ? BagAggOp::Fn::kMax
              : name == "bagmin" ? BagAggOp::Fn::kMin
                                 : BagAggOp::Fn::kCount;
    return std::make_unique<BagAggOp>(ctx, fn, build_plan(expr->args[0], ctx), expr->pos);
  }
  if (name == "abs" || name == "sqrtv") {
    if (expr->args.size() != 1) throw Error(name + "() takes one argument", expr->pos);
    auto fn = name == "abs" ? ScalarMapOp::Fn::kAbs : ScalarMapOp::Fn::kSqrt;
    return std::make_unique<ScalarMapOp>(ctx, fn, build_plan(expr->args[0], ctx), expr->pos);
  }
  if (name == "system.metrics" || name == "system.gauges" || name == "system.rates") {
    return build_introspect(*expr, ctx);
  }
  if (name == "above") {
    if (expr->args.size() != 2) {
      throw Error("above(stream, threshold) takes two arguments", expr->pos);
    }
    Object threshold = ctx.const_eval(expr->args[1]);
    if (threshold.kind() != Kind::kInt && threshold.kind() != Kind::kReal) {
      throw Error("above() threshold must be numeric", expr->pos);
    }
    return std::make_unique<AboveOp>(ctx, build_plan(expr->args[0], ctx),
                                     threshold.as_number(), expr->pos);
  }
  if (name == "receiver") {
    if (expr->args.size() != 1) throw Error("receiver() takes one argument", expr->pos);
    Object src = ctx.const_eval(expr->args[0]);
    if (src.kind() != Kind::kStr) throw Error("receiver() argument must be a string",
                                              expr->pos);
    return std::make_unique<ReceiverSourceOp>(ctx, src.as_str());
  }
  if (name == "iota") {
    Object bag = ctx.const_eval(expr);
    return std::make_unique<BagStreamOp>(ctx, bag.as_bag());
  }
  if (name == "sp" || name == "spv") {
    throw Error("dynamic " + name + "() inside a stream process is not supported; "
                "create stream processes in the submitted query",
                expr->pos);
  }
  // Unknown call: it may still be a constant-evaluable builtin
  // (filename(i), arithmetic helpers); try the environment evaluator,
  // which reports its own error for genuinely unknown functions.
  return std::make_unique<ConstOp>(ctx, ctx.const_eval(expr));
}

}  // namespace scsq::plan
