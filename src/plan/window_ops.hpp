// Window aggregation and per-element math operators.
//
// The paper positions SCSQ against Sawzall by noting that "SCSQ features
// all common stream operators including window aggregation" (§4). These
// operators provide the count-based window family:
//
//   cwindow(s, n)        tumbling window: every n consecutive elements
//                        emitted as one bag
//   swindow(s, n, k)     sliding window: bag of the latest n elements,
//                        emitted every k arrivals (k <= n)
//   bagsum/bagavg/bagmax/bagmin/bagcount(s)
//                        per-bag aggregates over a stream of bags
//   abs/sqrtv(s)         per-element scalar maps over numeric streams
//   above(s, x)          threshold filter: numeric elements > x pass
//
// Windows operate over any object kind; the bag aggregates require
// numeric elements (int or real).
#pragma once

#include <deque>

#include "plan/operator.hpp"

namespace scsq::plan {

/// Count-based window: emits bags of `size` elements, advancing by
/// `slide` elements per emission (slide == size -> tumbling). A final
/// partial window is emitted at end of stream if any elements remain
/// un-emitted.
class WindowOp final : public Operator {
 public:
  WindowOp(PlanContext& ctx, OperatorPtr child, std::int64_t size, std::int64_t slide);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "window"; }

 private:
  PlanContext* ctx_;
  OperatorPtr child_;
  std::size_t size_;
  std::size_t slide_;
  std::deque<catalog::Object> buffer_;
  std::size_t pending_ = 0;  // arrivals since last emission
  bool eos_ = false;
  bool emitted_any_ = false;
  bool flushed_ = false;
};

/// Per-bag aggregate over a stream of bags. An element that is not a
/// bag, or a bag element that is not a number, is an scsql::Error at the
/// call's source position `pos`.
class BagAggOp final : public Operator {
 public:
  enum class Fn { kSum, kAvg, kMax, kMin, kCount };
  BagAggOp(PlanContext& ctx, Fn fn, OperatorPtr child, scsql::SourcePos pos);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override;

 private:
  PlanContext* ctx_;
  Fn fn_;
  OperatorPtr child_;
  scsql::SourcePos pos_;
};

/// Per-element scalar math over numeric streams. An element that is not
/// a number is an scsql::Error at the call's source position `pos`.
class ScalarMapOp final : public Operator {
 public:
  enum class Fn { kAbs, kSqrt };
  ScalarMapOp(PlanContext& ctx, Fn fn, OperatorPtr child, scsql::SourcePos pos);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override;

 private:
  PlanContext* ctx_;
  Fn fn_;
  OperatorPtr child_;
  scsql::SourcePos pos_;
};

/// Threshold filter over a numeric stream: elements strictly greater
/// than the threshold pass; everything else is dropped. The threshold
/// grep of monitor queries (above(system.rates(...), limit)), but a
/// regular stream operator usable in any plan.
class AboveOp final : public Operator {
 public:
  AboveOp(PlanContext& ctx, OperatorPtr child, double threshold, scsql::SourcePos pos);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "above"; }

 private:
  PlanContext* ctx_;
  OperatorPtr child_;
  double threshold_;
  scsql::SourcePos pos_;
};

}  // namespace scsq::plan
