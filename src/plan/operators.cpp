#include "plan/operators.hpp"

#include <cmath>

#include "funcs/fft.hpp"
#include "funcs/textgen.hpp"
#include "plan/op_costs.hpp"

namespace scsq::plan {

using catalog::Object;

// ---------------------------------------------------------------------
// ConstOp / BagStreamOp
// ---------------------------------------------------------------------

ConstOp::ConstOp(PlanContext& ctx, Object value) : ctx_(&ctx), value_(std::move(value)) {}

sim::Task<std::optional<Object>> ConstOp::next() {
  if (emitted_) co_return std::nullopt;
  emitted_ = true;
  co_await ctx_->cpu->use(op_costs::invoke(ctx_->node));
  co_return std::optional<Object>(value_);
}

BagStreamOp::BagStreamOp(PlanContext& ctx, catalog::Bag values)
    : ctx_(&ctx), values_(std::move(values)) {}

sim::Task<std::optional<Object>> BagStreamOp::next() {
  if (index_ >= values_.size()) co_return std::nullopt;
  co_await ctx_->cpu->use(op_costs::invoke(ctx_->node));
  co_return std::optional<Object>(values_[index_++]);
}

// ---------------------------------------------------------------------
// GenArrayOp
// ---------------------------------------------------------------------

GenArrayOp::GenArrayOp(PlanContext& ctx, std::uint64_t bytes, std::int64_t count)
    : ctx_(&ctx), bytes_(bytes), count_(count) {}

sim::Task<std::optional<Object>> GenArrayOp::next() {
  if (count_ >= 0 && produced_ >= count_) co_return std::nullopt;
  // Producing the array content costs CPU on the generating node.
  co_await ctx_->cpu->use(op_costs::gen_array(ctx_->node, bytes_));
  catalog::SynthArray arr{bytes_, static_cast<std::uint64_t>(produced_)};
  ++produced_;
  co_return std::optional<Object>(Object{arr});
}

// ---------------------------------------------------------------------
// ReceiveOp / MergeOp
// ---------------------------------------------------------------------

sim::Task<std::optional<Object>> ReceiveOp::next() { return driver_->next(); }

MergeOp::MergeOp(PlanContext& ctx, std::vector<transport::ReceiverDriver*> drivers)
    : ctx_(&ctx), drivers_(std::move(drivers)), out_(*ctx.sim, 1) {
  SCSQ_CHECK(!drivers_.empty()) << "merge of zero streams";
}

sim::Task<void> MergeOp::pump(transport::ReceiverDriver* driver) {
  while (auto obj = co_await driver->next()) {
    co_await out_.send(std::move(*obj));
  }
  if (--live_ == 0) out_.close();
}

void MergeOp::ensure_started() {
  if (started_) return;
  started_ = true;
  live_ = static_cast<int>(drivers_.size());
  for (auto* d : drivers_) ctx_->sim->spawn(pump(d));
}

sim::Task<std::optional<Object>> MergeOp::next() {
  ensure_started();
  co_return co_await out_.recv();
}

// ---------------------------------------------------------------------
// CountOp / SumOp
// ---------------------------------------------------------------------

CountOp::CountOp(PlanContext& ctx, OperatorPtr child) : ctx_(&ctx), child_(std::move(child)) {}

sim::Task<std::optional<Object>> CountOp::next() {
  if (done_) co_return std::nullopt;
  done_ = true;
  std::int64_t n = 0;
  while (auto obj = co_await child_->next()) {
    co_await ctx_->cpu->use(op_costs::invoke(ctx_->node));
    ++n;
  }
  co_return std::optional<Object>(Object{n});
}

SumOp::SumOp(PlanContext& ctx, OperatorPtr child, scsql::SourcePos pos)
    : ctx_(&ctx), child_(std::move(child)), pos_(pos) {}

sim::Task<std::optional<Object>> SumOp::next() {
  if (done_) co_return std::nullopt;
  done_ = true;
  std::int64_t int_sum = 0;
  double real_sum = 0.0;
  bool all_int = true;
  while (auto obj = co_await child_->next()) {
    const double v = numeric_input(*obj, "sum", "a stream of numbers", pos_);
    co_await ctx_->cpu->use(op_costs::invoke(ctx_->node));
    if (obj->kind() == catalog::Kind::kInt && all_int) {
      if (__builtin_add_overflow(int_sum, obj->as_int(), &int_sum)) {
        throw scsql::Error("integer overflow in sum()", pos_);
      }
    } else {
      if (all_int) {
        real_sum = static_cast<double>(int_sum);
        all_int = false;
      }
      real_sum += v;
    }
  }
  if (all_int) co_return std::optional<Object>(Object{int_sum});
  co_return std::optional<Object>(Object{real_sum});
}

// ---------------------------------------------------------------------
// ArrayMapOp
// ---------------------------------------------------------------------

ArrayMapOp::ArrayMapOp(PlanContext& ctx, Stage stage, OperatorPtr child)
    : ctx_(&ctx), stage_(stage), child_(std::move(child)) {}

const char* ArrayMapOp::fn_name(Fn fn) {
  switch (fn) {
    case Fn::kOdd: return "odd";
    case Fn::kEven: return "even";
    case Fn::kFft: return "fft";
  }
  return "?";
}

const std::vector<double>& ArrayMapOp::input(const Stage& stage, const Object& obj) {
  if (obj.kind() != catalog::Kind::kDArray) {
    throw scsql::Error(std::string(fn_name(stage.fn)) +
                           "() expects a stream of real arrays (got " +
                           catalog::kind_name(obj.kind()) + ")",
                       stage.pos);
  }
  return obj.as_darray();
}

sim::Task<std::optional<Object>> ArrayMapOp::next() {
  auto obj = co_await child_->next();
  if (!obj) co_return std::nullopt;
  const auto& in = input(stage_, *obj);
  switch (stage_.fn) {
    case Fn::kOdd: {
      co_await ctx_->cpu->use(op_costs::array_select(ctx_->node, in.size()));
      co_return std::optional<Object>(Object{funcs::odd(in)});
    }
    case Fn::kEven: {
      co_await ctx_->cpu->use(op_costs::array_select(ctx_->node, in.size()));
      co_return std::optional<Object>(Object{funcs::even(in)});
    }
    case Fn::kFft: {
      co_await ctx_->cpu->use(op_costs::array_fft(ctx_->node, in.size()));
      co_return std::optional<Object>(Object{funcs::fft(in)});
    }
  }
  co_return std::nullopt;  // unreachable
}

// ---------------------------------------------------------------------
// RadixCombineOp
// ---------------------------------------------------------------------

RadixCombineOp::RadixCombineOp(PlanContext& ctx, OperatorPtr odd_leg, OperatorPtr even_leg)
    : ctx_(&ctx), odd_leg_(std::move(odd_leg)), even_leg_(std::move(even_leg)) {}

sim::Task<std::optional<Object>> RadixCombineOp::next() {
  auto odd_obj = co_await odd_leg_->next();
  auto even_obj = co_await even_leg_->next();
  if (!odd_obj && !even_obj) co_return std::nullopt;
  if (!odd_obj || !even_obj) {
    throw scsql::Error("radixcombine legs ended unevenly");
  }
  const auto& o = odd_obj->as_carray();
  const auto& e = even_obj->as_carray();
  co_await ctx_->cpu->use(op_costs::radix_combine(ctx_->node, o.size() + e.size()));
  co_return std::optional<Object>(Object{funcs::radix_combine(e, o)});
}

// ---------------------------------------------------------------------
// GrepOp
// ---------------------------------------------------------------------

GrepOp::GrepOp(PlanContext& ctx, std::string pattern, std::string filename)
    : ctx_(&ctx), pattern_(std::move(pattern)), filename_(std::move(filename)) {}

sim::Task<void> GrepOp::scan() {
  scanned_ = true;
  std::uint64_t scanned_bytes = 0;
  auto lines = funcs::file_lines(filename_);
  for (auto& line : lines) scanned_bytes += line.size();
  // Scanning cost: one pass over the file content.
  co_await ctx_->cpu->use(op_costs::grep_scan(ctx_->node, scanned_bytes));
  for (auto& line : funcs::grep_file(pattern_, filename_)) {
    matches_.push_back(std::move(line));
  }
}

sim::Task<std::optional<Object>> GrepOp::next() {
  if (!scanned_) co_await scan();
  if (matches_.empty()) co_return std::nullopt;
  auto line = std::move(matches_.front());
  matches_.pop_front();
  co_return std::optional<Object>(Object{std::move(line)});
}

// ---------------------------------------------------------------------
// ReceiverSourceOp
// ---------------------------------------------------------------------

ReceiverSourceOp::ReceiverSourceOp(PlanContext& ctx, std::string source_name)
    : ctx_(&ctx), source_(std::move(source_name)) {}

sim::Task<std::optional<Object>> ReceiverSourceOp::next() {
  if (!loaded_) {
    loaded_ = true;
    SCSQ_CHECK(ctx_->stream_source != nullptr) << "no stream source hook installed";
    for (auto& arr : ctx_->stream_source(source_)) arrays_.push_back(std::move(arr));
  }
  if (arrays_.empty()) co_return std::nullopt;
  auto arr = std::move(arrays_.front());
  arrays_.pop_front();
  co_await ctx_->cpu->use(op_costs::receiver_ingest(ctx_->node, arr.size()));
  co_return std::optional<Object>(Object{std::move(arr)});
}

}  // namespace scsq::plan
