#include "plan/window_ops.hpp"

#include <cmath>

namespace scsq::plan {

using catalog::Bag;
using catalog::Kind;
using catalog::Object;

// ---------------------------------------------------------------------
// WindowOp
// ---------------------------------------------------------------------

WindowOp::WindowOp(PlanContext& ctx, OperatorPtr child, std::int64_t size,
                   std::int64_t slide)
    : ctx_(&ctx), child_(std::move(child)) {
  if (size < 1) throw scsql::Error("window size must be >= 1");
  if (slide < 1 || slide > size) {
    throw scsql::Error("window slide must be in [1, size]");
  }
  size_ = static_cast<std::size_t>(size);
  slide_ = static_cast<std::size_t>(slide);
}

sim::Task<std::optional<Object>> WindowOp::next() {
  while (true) {
    if (eos_) {
      // Emit one final partial window when elements arrived after the
      // last full emission (or the stream was shorter than one window).
      if (!flushed_ && !buffer_.empty() && (pending_ > 0 || !emitted_any_)) {
        flushed_ = true;
        Bag out(buffer_.begin(), buffer_.end());
        co_await ctx_->cpu->use(ctx_->node.op_invoke_s);
        co_return std::optional<Object>(Object{std::move(out)});
      }
      co_return std::nullopt;
    }
    auto obj = co_await child_->next();
    if (!obj) {
      eos_ = true;
      continue;
    }
    buffer_.push_back(std::move(*obj));
    if (buffer_.size() > size_) buffer_.pop_front();
    ++pending_;
    if (buffer_.size() == size_ && pending_ >= slide_) {
      pending_ = 0;
      emitted_any_ = true;
      Bag out(buffer_.begin(), buffer_.end());
      co_await ctx_->cpu->use(ctx_->node.op_invoke_s);
      // Tumbling windows do not retain emitted elements.
      if (slide_ == size_) buffer_.clear();
      co_return std::optional<Object>(Object{std::move(out)});
    }
  }
}

// ---------------------------------------------------------------------
// BagAggOp
// ---------------------------------------------------------------------

BagAggOp::BagAggOp(PlanContext& ctx, Fn fn, OperatorPtr child, scsql::SourcePos pos)
    : ctx_(&ctx), fn_(fn), child_(std::move(child)), pos_(pos) {}

std::string BagAggOp::name() const {
  switch (fn_) {
    case Fn::kSum: return "bagsum";
    case Fn::kAvg: return "bagavg";
    case Fn::kMax: return "bagmax";
    case Fn::kMin: return "bagmin";
    case Fn::kCount: return "bagcount";
  }
  return "?";
}

sim::Task<std::optional<Object>> BagAggOp::next() {
  auto obj = co_await child_->next();
  if (!obj) co_return std::nullopt;
  if (obj->kind() != Kind::kBag) {
    throw scsql::Error(name() + "() expects a stream of bags (got " +
                           catalog::kind_name(obj->kind()) + "; use cwindow/swindow)",
                       pos_);
  }
  const auto& bag = obj->as_bag();
  co_await ctx_->cpu->use(ctx_->node.op_invoke_s +
                          static_cast<double>(bag.size()) * ctx_->node.flop_s);
  if (fn_ == Fn::kCount) {
    co_return std::optional<Object>(Object{static_cast<std::int64_t>(bag.size())});
  }
  if (bag.empty()) {
    throw scsql::Error(name() + "() of an empty window", pos_);
  }
  const std::string fn = name();
  double acc = fn_ == Fn::kMin || fn_ == Fn::kMax
                   ? numeric_input(bag[0], fn, "bags of numbers", pos_)
                   : 0.0;
  for (const auto& el : bag) {
    const double v = numeric_input(el, fn, "bags of numbers", pos_);
    switch (fn_) {
      case Fn::kSum:
      case Fn::kAvg:
        acc += v;
        break;
      case Fn::kMax:
        acc = std::max(acc, v);
        break;
      case Fn::kMin:
        acc = std::min(acc, v);
        break;
      case Fn::kCount:
        break;
    }
  }
  if (fn_ == Fn::kAvg) acc /= static_cast<double>(bag.size());
  co_return std::optional<Object>(Object{acc});
}

// ---------------------------------------------------------------------
// ScalarMapOp
// ---------------------------------------------------------------------

ScalarMapOp::ScalarMapOp(PlanContext& ctx, Fn fn, OperatorPtr child, scsql::SourcePos pos)
    : ctx_(&ctx), fn_(fn), child_(std::move(child)), pos_(pos) {}

std::string ScalarMapOp::name() const {
  switch (fn_) {
    case Fn::kAbs: return "abs";
    case Fn::kSqrt: return "sqrtv";
  }
  return "?";
}

sim::Task<std::optional<Object>> ScalarMapOp::next() {
  auto obj = co_await child_->next();
  if (!obj) co_return std::nullopt;
  const double v = numeric_input(*obj, name(), "a stream of numbers", pos_);
  co_await ctx_->cpu->use(ctx_->node.op_invoke_s + ctx_->node.flop_s);
  switch (fn_) {
    case Fn::kAbs:
      co_return std::optional<Object>(Object{std::fabs(v)});
    case Fn::kSqrt:
      if (v < 0.0) throw scsql::Error("sqrtv() of a negative value", pos_);
      co_return std::optional<Object>(Object{std::sqrt(v)});
  }
  co_return std::nullopt;  // unreachable
}

// ---------------------------------------------------------------------
// AboveOp
// ---------------------------------------------------------------------

AboveOp::AboveOp(PlanContext& ctx, OperatorPtr child, double threshold, scsql::SourcePos pos)
    : ctx_(&ctx), child_(std::move(child)), threshold_(threshold), pos_(pos) {}

sim::Task<std::optional<Object>> AboveOp::next() {
  while (true) {
    auto obj = co_await child_->next();
    if (!obj) co_return std::nullopt;
    const double v = numeric_input(*obj, "above", "a numeric stream", pos_);
    co_await ctx_->cpu->use(ctx_->node.op_invoke_s);
    if (v > threshold_) co_return obj;
  }
}

}  // namespace scsq::plan
