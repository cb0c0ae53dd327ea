// SQEP (Stream Query Execution Plan) operator interface.
//
// An RP "compil[es] its subquery into a local Stream Query Execution
// Plan and interpret[s] it" (paper §2.3). Operators form a pull-based
// pipeline: next() is a simulation coroutine that may suspend on network
// receives and charges CPU time for the work it models. The stream ends
// with nullopt.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/batch.hpp"
#include "catalog/object.hpp"
#include "hw/cost_model.hpp"
#include "hw/location.hpp"
#include "scsql/ast.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "transport/driver.hpp"

namespace scsq::plan {

/// Batch of stream objects flowing between operators (see catalog/batch.hpp).
using ItemBatch = catalog::ItemBatch;

/// One telemetry window handed to an introspection (monitor) plan; see
/// plan/introspect_ops.hpp. Null outside monitor contexts.
struct IntrospectFeed;

/// Everything an operator needs about the RP it runs in. Owned by the
/// RP; must outlive the plan.
struct PlanContext {
  sim::Simulator* sim = nullptr;
  hw::Location loc;
  sim::Resource* cpu = nullptr;  // compute CPU of the RP's node
  hw::NodeParams node;

  /// Introspection feed for monitor queries over system.metrics /
  /// system.gauges / system.rates. Non-null only inside a
  /// monitor plan context (Engine::register_monitor); the system.*
  /// sources refuse to build without it.
  const IntrospectFeed* introspect = nullptr;

  /// Evaluates a non-streaming expression (literal, captured variable,
  /// arithmetic, iota, bag constructor) to a value. Supplied by the
  /// execution engine; throws scsql::Error if the expression would need
  /// streaming.
  std::function<catalog::Object(const scsql::ExprPtr&)> const_eval;

  /// Subscribes this RP to a producer's output stream and returns the
  /// receiver driver for it. Supplied by the execution engine.
  std::function<transport::ReceiverDriver&(const catalog::SpHandle&)> subscribe;

  /// Named external signal sources for receiver(name): each call returns
  /// the full finite sequence of signal arrays for that source.
  std::function<std::vector<std::vector<double>>(const std::string&)> stream_source;
};

class Operator {
 public:
  virtual ~Operator() = default;
  Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Pulls the next stream element, or nullopt at end of stream.
  /// Must not be called again after it returned nullopt.
  virtual sim::Task<std::optional<catalog::Object>> next() = 0;

  /// Batch pull: appends up to `max` (>= 1) elements to `out` and marks
  /// `out` EOS once the stream has ended (a batch may carry final items
  /// and the EOS flag together). Must not be called again after an EOS
  /// batch. The base implementation delivers exactly ONE item per call
  /// via next() — deliberately, not a loop: pulling an arbitrary child
  /// several times without returning control could reorder its CPU
  /// charges against other processes contending for the same simulated
  /// resources (a merge pump, a sender drain), and the batch contract
  /// is that the simulated timeline is bit-identical at every depth.
  /// Operators whose charge pattern provably commutes override this
  /// with a real batched path.
  virtual sim::Task<void> next_batch(ItemBatch& out, std::size_t max);

  /// Items delivered / batches counted by next_batch (empty EOS-only
  /// pulls are not counted, so items/batches is the mean batch fill).
  struct BatchCounters {
    std::uint64_t batches = 0;
    std::uint64_t items = 0;
    double mean_fill() const {
      return batches == 0 ? 0.0 : static_cast<double>(items) / static_cast<double>(batches);
    }
  };
  const BatchCounters& batch_counters() const { return batch_counters_; }

  /// Operator name for plan dumps ("count", "gen_array", ...).
  virtual std::string name() const = 0;

 protected:
  /// Accounting hook for next_batch implementations; call once per
  /// non-empty delivered batch.
  void count_batch(std::size_t items) {
    ++batch_counters_.batches;
    batch_counters_.items += items;
  }

 private:
  BatchCounters batch_counters_;
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace scsq::plan
