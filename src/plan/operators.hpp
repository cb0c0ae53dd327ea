// Concrete SQEP operators.
#pragma once

#include <deque>

#include "plan/operator.hpp"
#include "sim/channel.hpp"

namespace scsq::plan {

/// Emits one constant value, then EOS. Compiled from literals, captured
/// variables and scalar expressions.
class ConstOp final : public Operator {
 public:
  ConstOp(PlanContext& ctx, catalog::Object value);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "const"; }

 private:
  PlanContext* ctx_;
  catalog::Object value_;
  bool emitted_ = false;
};

/// Emits each element of a bag (iota(1,n) as a stream source).
class BagStreamOp final : public Operator {
 public:
  BagStreamOp(PlanContext& ctx, catalog::Bag values);
  sim::Task<std::optional<catalog::Object>> next() override;
  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override;
  std::string name() const override { return "bag"; }

 private:
  PlanContext* ctx_;
  catalog::Bag values_;
  std::size_t index_ = 0;
};

/// gen_array(bytes, count): the paper's workload generator — a finite
/// stream of `count` synthetic arrays of `bytes` bytes each. A negative
/// count (the gen_stream(bytes) builtin) produces an unbounded stream;
/// such continuous queries end via a stop condition (max_results) or
/// explicit user intervention (the engine's time limit).
class GenArrayOp final : public Operator {
 public:
  GenArrayOp(PlanContext& ctx, std::uint64_t bytes, std::int64_t count);
  sim::Task<std::optional<catalog::Object>> next() override;
  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override;
  std::string name() const override { return "gen_array"; }

 private:
  PlanContext* ctx_;
  std::uint64_t bytes_;
  std::int64_t count_;
  std::int64_t produced_ = 0;
};

/// extract(p): pulls materialized objects from one producer.
class ReceiveOp final : public Operator {
 public:
  explicit ReceiveOp(transport::ReceiverDriver& driver) : driver_(&driver) {}
  sim::Task<std::optional<catalog::Object>> next() override;
  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override;
  std::string name() const override { return "receive"; }

 private:
  transport::ReceiverDriver* driver_;
};

/// merge(bag-of-sp): pulls from several producers; "terminates when (if
/// ever) the last stream process terminates" (paper §2.4). Arrival order
/// across producers follows simulated delivery time.
class MergeOp final : public Operator {
 public:
  MergeOp(PlanContext& ctx, std::vector<transport::ReceiverDriver*> drivers);
  sim::Task<std::optional<catalog::Object>> next() override;
  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override;
  std::string name() const override { return "merge"; }

 private:
  sim::Task<void> pump(transport::ReceiverDriver* driver);
  void ensure_started();

  PlanContext* ctx_;
  std::vector<transport::ReceiverDriver*> drivers_;
  sim::Channel<catalog::Object> out_;
  int live_ = 0;
  bool started_ = false;
};

/// count(child): consumes the child stream, emits its cardinality.
class CountOp final : public Operator {
 public:
  CountOp(PlanContext& ctx, OperatorPtr child);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "count"; }

 private:
  PlanContext* ctx_;
  OperatorPtr child_;
  bool done_ = false;
};

/// sum(child): numeric sum of the child stream (ints stay integral).
class SumOp final : public Operator {
 public:
  SumOp(PlanContext& ctx, OperatorPtr child);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "sum"; }

 private:
  PlanContext* ctx_;
  OperatorPtr child_;
  bool done_ = false;
};

/// streamof(e): the paper's stream-from-expression adapter. Operator
/// pipelines already represent everything as streams, so this forwards.
class PassOp final : public Operator {
 public:
  explicit PassOp(OperatorPtr child) : child_(std::move(child)) {}
  sim::Task<std::optional<catalog::Object>> next() override { return child_->next(); }
  /// Forwarding is batch-transparent: the child's batch is our batch.
  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override {
    const std::size_t before = out.size();
    co_await child_->next_batch(out, max);
    if (out.size() > before) count_batch(out.size() - before);
  }
  std::string name() const override { return "streamof"; }

 private:
  OperatorPtr child_;
};

/// odd(x) / even(x) / fft(x): per-element array transforms.
class ArrayMapOp final : public Operator {
 public:
  enum class Fn { kOdd, kEven, kFft };
  /// One odd/even/fft call: the transform and the call's source position.
  struct Stage {
    Fn fn;
    scsql::SourcePos pos;
  };
  ArrayMapOp(PlanContext& ctx, Stage stage, OperatorPtr child);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return fn_name(stage_.fn); }

  static const char* fn_name(Fn fn);

  /// The real array `stage` maps over. Any other kind of object is an
  /// scsql::Error naming the function, the kind it got and the call's
  /// source position (the fused pipeline checks its stages with it too).
  static const std::vector<double>& input(const Stage& stage, const catalog::Object& obj);

 private:
  PlanContext* ctx_;
  Stage stage_;
  OperatorPtr child_;
};

/// radixcombine over exactly two producer legs, pairing the k-th element
/// of the odd-FFT leg with the k-th element of the even-FFT leg (the
/// paper's radix2 query binds leg order via the bag {a, b} with a = odd
/// half, b = even half).
class RadixCombineOp final : public Operator {
 public:
  RadixCombineOp(PlanContext& ctx, OperatorPtr odd_leg, OperatorPtr even_leg);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "radixcombine"; }

 private:
  PlanContext* ctx_;
  OperatorPtr odd_leg_;
  OperatorPtr even_leg_;
};

/// grep(pattern, filename): scans the (synthetic) file, emits matching
/// lines (paper §2.4 mapreduce example).
class GrepOp final : public Operator {
 public:
  GrepOp(PlanContext& ctx, std::string pattern, std::string filename);
  sim::Task<std::optional<catalog::Object>> next() override;
  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override;
  std::string name() const override { return "grep"; }

 private:
  sim::Task<void> scan();

  PlanContext* ctx_;
  std::string pattern_;
  std::string filename_;
  bool scanned_ = false;
  std::deque<std::string> matches_;
};

/// receiver(name): source of real signal arrays from a registered
/// external stream source (the radix2 example's antenna feed).
class ReceiverSourceOp final : public Operator {
 public:
  ReceiverSourceOp(PlanContext& ctx, std::string source_name);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "receiver"; }

 private:
  PlanContext* ctx_;
  std::string source_;
  bool loaded_ = false;
  std::deque<std::vector<double>> arrays_;
};

}  // namespace scsq::plan
