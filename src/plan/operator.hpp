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
#include <string_view>
#include <vector>

#include "catalog/object.hpp"
#include "hw/cost_model.hpp"
#include "hw/location.hpp"
#include "scsql/ast.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "transport/driver.hpp"

namespace scsq::plan {

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

  /// Operator name for plan dumps ("count", "gen_array", ...).
  virtual std::string name() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// `obj` as a number, for the call `fn`() at `pos`, which `expects` some
/// input ("a stream of numbers"). Any other kind is an scsql::Error
/// naming the function, what it expects and the kind it got.
inline double numeric_input(const catalog::Object& obj, std::string_view fn,
                            const char* expects, scsql::SourcePos pos) {
  if (obj.kind() == catalog::Kind::kInt || obj.kind() == catalog::Kind::kReal) {
    return obj.as_number();
  }
  throw scsql::Error(std::string(fn) + "() expects " + expects + " (got " +
                         catalog::kind_name(obj.kind()) + ")",
                     pos);
}

}  // namespace scsq::plan
