#include "exec/engine.hpp"

#include <cmath>
#include <sstream>

#include "exec/eval.hpp"
#include "exec/substitute.hpp"
#include "resolve/binder.hpp"
#include "util/logging.hpp"

namespace scsq::exec {

using catalog::Bag;
using catalog::Kind;
using catalog::Object;
using catalog::SpHandle;
using scsql::Error;
using scsql::ExprKind;
using scsql::ExprPtr;

namespace {

/// Rejects settings the engine cannot run with (a zero-byte buffer, no
/// send buffer, no receive slot) before any query is wired, instead of
/// letting a driver abort mid-simulation.
void validate_options(const ExecOptions& options) {
  if (options.buffer_bytes < 1) {
    throw Error("ExecOptions::buffer_bytes must be >= 1, got " +
                std::to_string(options.buffer_bytes));
  }
  if (options.send_buffers < 1) {
    throw Error("ExecOptions::send_buffers must be >= 1, got " +
                std::to_string(options.send_buffers));
  }
  if (options.recv_buffers < 1) {
    throw Error("ExecOptions::recv_buffers must be >= 1, got " +
                std::to_string(options.recv_buffers));
  }
}

}  // namespace

Engine::Engine(hw::Machine& machine, ExecOptions options)
    : machine_(&machine), options_(std::move(options)) {
  validate_options(options_);
  set_sample_interval(options_.sample_interval_s);
  auto& sim = machine_->sim();
  fe_cc_ = std::make_unique<ClusterCoordinator>(sim, hw::kFrontEnd,
                                                machine_->cndb(hw::kFrontEnd),
                                                options_.coordinator_rpc_s,
                                                /*poll_interval=*/0.0,
                                                /*exclusive_nodes=*/false);
  be_cc_ = std::make_unique<ClusterCoordinator>(sim, hw::kBackEnd,
                                                machine_->cndb(hw::kBackEnd),
                                                options_.coordinator_rpc_s,
                                                /*poll_interval=*/0.0,
                                                /*exclusive_nodes=*/false);
  bg_cc_ = std::make_unique<ClusterCoordinator>(sim, hw::kBlueGene,
                                                machine_->cndb(hw::kBlueGene),
                                                options_.coordinator_rpc_s,
                                                options_.bgcc_poll_interval_s,
                                                /*exclusive_nodes=*/true,
                                                options_.node_selection);
}

Engine::~Engine() = default;

void Engine::set_sample_interval(double interval_s) {
  if (interval_s != 0.0 && !(interval_s >= kMinSampleInterval && std::isfinite(interval_s))) {
    std::ostringstream msg;
    msg << "the sample interval must be 0 (off) or a finite number of at least "
        << kMinSampleInterval << " simulated seconds, got " << interval_s;
    throw Error(msg.str());
  }
  options_.sample_interval_s = interval_s;
  sampler_ = std::make_unique<obs::Sampler>(
      machine_->sim(), machine_->metrics(),
      obs::Sampler::Options{options_.sample_interval_s});
  // Pull-model metrics (network utilization, kernel perf, frame pool)
  // must be fresh in the registry at every window boundary.
  sampler_->add_publisher([this] { machine_->publish_metrics(); });
  install_window_observer();
}

void Engine::install_window_observer() {
  sampler_->set_window_observer(
      [this](const obs::Sampler::Window& w, std::size_t i) { on_window(w, i); });
}

ClusterCoordinator& Engine::coordinator(const std::string& cluster) {
  if (cluster == hw::kFrontEnd) return *fe_cc_;
  if (cluster == hw::kBackEnd) return *be_cc_;
  if (cluster == hw::kBlueGene) return *bg_cc_;
  throw Error("unknown cluster '" + cluster + "'");
}

void Engine::register_function(std::shared_ptr<const scsql::FunctionDef> fn) {
  SCSQ_CHECK(fn != nullptr) << "null function definition";
  functions_[fn->name] = std::move(fn);
}

void Engine::register_stream_source(std::string name,
                                    std::vector<std::vector<double>> arrays) {
  stream_sources_[std::move(name)] = std::move(arrays);
}

transport::DriverParams Engine::driver_params_for(const hw::Location& loc) const {
  transport::DriverParams p;
  p.buffer_bytes = options_.buffer_bytes;
  p.send_buffers = options_.send_buffers;
  p.recv_buffers = options_.recv_buffers;
  const auto& node = machine_->node_params(loc);
  p.marshal_per_byte_s = node.marshal_per_byte_s;
  p.alloc_per_object_s = node.alloc_per_object_s;
  p.frame_pool = &machine_->frame_pool();
  if (loc.cluster == hw::kBlueGene) {
    // BlueGene compute CPUs see cache-miss growth for large buffers
    // (the Fig. 6 decline right of the peak).
    auto* torus = &machine_->bg().torus();
    p.cache_factor = [torus](std::uint64_t bytes) { return torus->cache_factor(bytes); };
  }
  return p;
}

// ---------------------------------------------------------------------
// Script / statement entry points
// ---------------------------------------------------------------------

RunReport Engine::run_script(std::string_view text) {
  RunReport last;
  for (const auto& st : scsql::parse_script(text)) {
    last = run_statement(st);
  }
  return last;
}

RunReport Engine::run_statement(const scsql::Statement& statement) {
  if (statement.function) {
    register_function(statement.function);
    return RunReport{};
  }
  SCSQ_CHECK(statement.query != nullptr) << "statement without query or function";

  RunReport report;
  error_ = nullptr;
  stop_requested_ = false;
  rps_.clear();
  alloc_seqs_.clear();
  next_rp_id_ = 1;
  results_sink_ = &report.results;
  monitor_alerts_.clear();
  monitor_error_ = nullptr;
  for (auto& m : monitors_) m.alerts_last_run = 0;

  auto& sim = machine_->sim();
  const double t0 = sim.now();
  // Arm the telemetry sampler before the first event. Ticks are
  // zero-duration read-only callbacks, so the statement's observable
  // timing is identical with sampling on or off (DESIGN.md §5.7).
  sampler_->begin(t0, machine_->trace());
  sim.spawn(execute(statement.query, &report));
  const double limit =
      options_.max_sim_time_s > 0 ? t0 + options_.max_sim_time_s : sim::Simulator::kNoLimit;
  sim.run(limit);
  if (sim.live_root_tasks() > 0 && !error_) {
    // "Explicit user intervention": the simulated-time limit fired while
    // the CQ was still running. Stop it and let the teardown drain.
    initiate_stop();
    report.stopped = true;
    sim.run(limit + std::max(1.0, 0.5 * options_.max_sim_time_s));
  }
  // Normally a no-op (execute() finished the sampler before its last
  // event); on error/limit paths this cancels the parked tick and drops
  // link-histogram registrations before any teardown can dangle them.
  sampler_->finish();

  // Teardown: release exclusively held nodes ("when a CQ is stopped, its
  // RPs are terminated", §2.2).
  for (const auto& rp : rps_) {
    if (!rp->is_client) coordinator(rp->loc.cluster).release_node(rp->loc.node);
  }
  results_sink_ = nullptr;

  if (error_) std::rethrow_exception(error_);
  if (monitor_error_) std::rethrow_exception(monitor_error_);
  if (sim.live_root_tasks() > 0) {
    throw Error("query did not complete (deadlock or simulated-time limit exceeded)");
  }

  // Connection and per-RP monitoring statistics.
  for (const auto& rp : rps_) {
    for (std::size_t i = 0; i < rp->senders.size(); ++i) {
      ConnectionStat c;
      c.producer_rp = rp->id;
      c.consumer_rp = rp->consumer_ids[i];
      c.src = rp->loc;
      c.dst = find_rp(rp->consumer_ids[i]).loc;
      c.bytes = rp->senders[i]->bytes_sent();
      report.stream_bytes += c.bytes;
      report.connections.push_back(std::move(c));
    }
    RpStat s;
    s.id = rp->id;
    s.loc = rp->loc;
    s.query = rp->query ? rp->query->to_string() : "<client manager>";
    s.elements_out = rp->elements_out;
    s.drive_s = rp->drive_s;
    for (const auto& tx : rp->senders) {
      s.bytes_sent += tx->bytes_sent();
      s.stall_s += tx->stall_seconds();
      s.marshal_s += tx->marshal_seconds();
    }
    for (const auto& rx : rp->receivers) {
      s.bytes_received += rx->bytes_received();
      s.recv_wait_s += rx->wait_seconds();
      s.demarshal_s += rx->demarshal_seconds();
    }
    s.pulls = rp->pulls;
    publish_rp_metrics(s);
    report.rps.push_back(std::move(s));
  }
  report.rp_count = rps_.size();
  report.stopped |= stop_requested_;
  machine_->metrics().gauge("engine.setup_s").set(report.setup_s);
  machine_->metrics().gauge("engine.elapsed_s").set(report.elapsed_s);
  machine_->metrics().gauge("engine.rp_count").set(static_cast<double>(report.rp_count));
  return report;
}

void Engine::publish_rp_metrics(const RpStat& s) {
  auto& registry = machine_->metrics();
  const obs::Labels labels{{"rp", std::to_string(s.id)}, {"loc", s.loc.to_string()}};
  registry.gauge("engine.rp.elements_out", labels).set(static_cast<double>(s.elements_out));
  registry.gauge("engine.rp.bytes_sent", labels).set(static_cast<double>(s.bytes_sent));
  registry.gauge("engine.rp.bytes_received", labels)
      .set(static_cast<double>(s.bytes_received));
  registry.gauge("engine.rp.stall_s", labels).set(s.stall_s);
  registry.gauge("engine.rp.drive_s", labels).set(s.drive_s);
  registry.gauge("engine.rp.recv_wait_s", labels).set(s.recv_wait_s);
  registry.gauge("engine.rp.marshal_s", labels).set(s.marshal_s);
  registry.gauge("engine.rp.demarshal_s", labels).set(s.demarshal_s);
  // perfbench builds plan.batch_fill from these two gauges, so they stay
  // until the benchmark's next change (ROADMAP item 4). Each pull
  // delivers one object: the fill is 1 wherever the root delivered.
  registry.gauge("engine.rp.batches", labels).set(static_cast<double>(s.pulls));
  registry.gauge("engine.rp.batch_fill", labels).set(s.pulls == 0 ? 0.0 : 1.0);
}

obs::Profile Engine::profile(const RunReport& report) const {
  obs::Profile p;
  p.elapsed_s = report.elapsed_s;
  p.setup_s = report.setup_s;
  p.coproc_switch_s = machine_->bg().torus().switch_seconds();
  for (const auto& rp : rps_) {
    obs::ProfileNode n;
    n.rp = rp->id;
    n.loc = rp->loc.to_string();
    n.query = rp->query ? rp->query->to_string() : "<client manager>";
    n.op = rp->root ? rp->root->name() : "collect";
    n.is_client = rp->is_client;
    n.elements_out = rp->elements_out;
    n.drive_s = rp->drive_s;
    for (const auto& rx : rp->receivers) {
      n.bytes_received += rx->bytes_received();
      n.recv_wait_s += rx->wait_seconds();
      n.demarshal_s += rx->demarshal_seconds();
    }
    for (std::size_t i = 0; i < rp->senders.size(); ++i) {
      const auto& tx = *rp->senders[i];
      n.bytes_sent += tx.bytes_sent();
      n.marshal_s += tx.marshal_seconds();
      n.send_stall_s += tx.stall_seconds();
      obs::ProfileEdge e;
      e.src_rp = rp->id;
      e.dst_rp = rp->consumer_ids[i];
      e.type = tx.link().type();
      const auto& st = tx.link().stats();
      e.frames = st.frames;
      e.payload_bytes = st.payload_bytes;
      e.wire_bytes = st.wire_bytes;
      e.transit_s = st.transit_s;
      e.window_wait_s = st.window_wait_s;
      e.latency = st.latency;
      p.edges.push_back(std::move(e));
    }
    p.nodes.push_back(std::move(n));
  }
  return p;
}

// ---------------------------------------------------------------------
// Introspection monitors (DESIGN.md §5.8)
// ---------------------------------------------------------------------

std::string Engine::register_monitor(const std::string& query_text) {
  std::string text = query_text;
  const std::size_t b = text.find_first_not_of(" \t\r\n");
  const std::size_t e = text.find_last_not_of(" \t\r\n;");
  if (b == std::string::npos || e == std::string::npos || b > e) {
    throw Error("empty monitor query");
  }
  text = text.substr(b, e - b + 1);
  scsql::Statement st = scsql::parse_statement(text + ";");
  if (st.function || st.query == nullptr) {
    throw Error("a monitor must be a query expression, not a function definition");
  }
  ExprPtr query = st.query;
  if (query->kind == ExprKind::kSelect) {
    // `select expr;` sugar: monitors are single expressions — binding
    // clauses would need the client-manager pass, which spawns RPs.
    const auto& sel = *query->select;
    if (sel.exprs.size() != 1 || !sel.predicates.empty()) {
      throw Error("a monitor must be a single expression (no from/where clauses)",
                  sel.pos);
    }
    query = sel.exprs[0];
  }

  Monitor m;
  m.name = "m" + std::to_string(next_monitor_id_++);
  m.query_text = text;
  m.query = std::move(query);
  // Validate now, not at the first window: build and drain the plan over
  // an empty feed. Build-time hooks reject extract()/receiver() (they
  // need the network); the dry drain rejects plans that suspend.
  obs::Sampler::Window dummy;
  plan::IntrospectFeed feed;
  feed.window = &dummy;
  run_monitor(m, feed, /*dry_run=*/true);
  m.alerts_last_run = 0;
  monitors_.push_back(std::move(m));
  return monitors_.back().name;
}

bool Engine::unregister_monitor(const std::string& name) {
  for (auto it = monitors_.begin(); it != monitors_.end(); ++it) {
    if (it->name == name) {
      monitors_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<Engine::MonitorInfo> Engine::monitors() const {
  std::vector<MonitorInfo> out;
  out.reserve(monitors_.size());
  for (const auto& m : monitors_) {
    out.push_back(MonitorInfo{m.name, m.query_text, m.alerts_last_run});
  }
  return out;
}

void Engine::add_window_listener(
    std::function<void(const obs::Sampler::Window&, std::size_t)> fn) {
  SCSQ_CHECK(fn != nullptr) << "window listener must be callable";
  window_listeners_.push_back(std::move(fn));
}

void Engine::on_window(const obs::Sampler::Window& window, std::size_t index) {
  if (!monitors_.empty()) {
    plan::IntrospectFeed feed;
    feed.window = &window;
    feed.window_index = index;
    for (auto& m : monitors_) {
      try {
        run_monitor(m, feed, /*dry_run=*/false);
      } catch (...) {
        // Deferred: run_statement rethrows after the workload tears
        // down — a broken monitor must not corrupt the measured run.
        if (!monitor_error_) monitor_error_ = std::current_exception();
      }
    }
  }
  for (const auto& fn : window_listeners_) fn(window, index);
}

void Engine::run_monitor(Monitor& monitor, const plan::IntrospectFeed& feed,
                         bool dry_run) {
  // Zero-perturbation contract: all NodeParams costs are zero, the CPU
  // resource is private and uncontended, and the plan is pulled one item
  // at a time. Every awaitable the operator machinery reaches then
  // completes inline — Resource::acquire with a free slot, a zero-length
  // Resource::use — so the plan is drained synchronously below by
  // resuming each next() once and never schedules a simulator event. The
  // measured workload's event order, tables and elapsed_s are
  // byte-identical with monitors on or off.
  hw::NodeParams zero;
  zero.marshal_per_byte_s = 0.0;
  zero.alloc_per_object_s = 0.0;
  zero.gen_per_byte_s = 0.0;
  zero.op_invoke_s = 0.0;
  zero.flop_s = 0.0;
  sim::Resource cpu(machine_->sim(), 1);
  Env env;
  plan::PlanContext ctx;
  ctx.sim = &machine_->sim();
  ctx.loc = hw::Location{hw::kFrontEnd, 0};
  ctx.cpu = &cpu;
  ctx.node = zero;
  ctx.introspect = &feed;
  ctx.const_eval = [this, &env](const ExprPtr& e) { return eval_const(e, env, machine_); };
  ctx.subscribe = [](const SpHandle&) -> transport::ReceiverDriver& {
    throw Error("extract()/merge() are not available in monitor queries");
  };
  ctx.stream_source = [](const std::string& name) -> std::vector<std::vector<double>> {
    throw Error("receiver('" + name + "') is not available in monitor queries");
  };
  plan::OperatorPtr root = plan::build_plan(monitor.query, ctx);

  constexpr std::size_t kMaxRowsPerWindow = 65536;
  auto* trace = machine_->trace();
  std::size_t rows = 0;
  while (true) {
    if (rows >= kMaxRowsPerWindow) {
      throw Error("monitor " + monitor.name + " produced more than " +
                  std::to_string(kMaxRowsPerWindow) + " rows in one window");
    }
    auto task = root->next();
    auto h = task.release();
    h.resume();
    if (!h.done()) {
      h.destroy();
      throw Error("monitor " + monitor.name +
                  " suspended: monitor queries must stay on introspection "
                  "streams (no gen_stream, network, or timed operators)");
    }
    auto& promise = h.promise();
    if (promise.exception) {
      const auto ex = promise.exception;
      h.destroy();
      std::rethrow_exception(ex);
    }
    SCSQ_CHECK(promise.value.has_value()) << "monitor plan finished without a value";
    std::optional<Object> row = std::move(*promise.value);
    h.destroy();
    if (!row.has_value()) break;
    if (!dry_run) {
      obs::MonitorAlert alert;
      alert.monitor = monitor.name;
      alert.query = monitor.query_text;
      alert.window = feed.window_index;
      alert.t_start = feed.window->t_start;
      alert.t_end = feed.window->t_end;
      alert.row = rows;
      alert.value = std::move(*row);
      if (trace != nullptr) {
        trace->instant("monitor:" + monitor.name, "alert", machine_->sim().now());
      }
      monitor_alerts_.push_back(std::move(alert));
    }
    ++rows;
  }
  if (!dry_run) monitor.alerts_last_run += rows;
}

// ---------------------------------------------------------------------
// Client-manager binding pass
// ---------------------------------------------------------------------

sim::Task<void> Engine::execute(ExprPtr query, RunReport* report) {
  auto& sim = machine_->sim();
  const double t0 = sim.now();
  try {
    Env env;
    ExprPtr result_expr;
    bool filters_hold = true;

    if (query->kind == ExprKind::kSelect) {
      auto bound = resolve::bind(*query->select);
      if (!bound.enumerations.empty()) {
        throw Error("enumeration ('in') in the top-level query is not supported",
                    bound.enumerations.front()->pos);
      }
      for (const auto* b : bound.bindings) {
        const bool var_on_lhs = b->lhs->kind == ExprKind::kVar && !env.contains(b->lhs->name);
        const auto& var = var_on_lhs ? b->lhs->name : b->rhs->name;
        const auto& value_expr = var_on_lhs ? b->rhs : b->lhs;
        env[var] = co_await eval_async(value_expr, env);
      }
      for (const auto* f : bound.filters) {
        Object lhs = eval_const(f->lhs, env, machine_);
        Object rhs = eval_const(f->rhs, env, machine_);
        Object keep = eval_const(
            scsql::make_binary(f->op, scsql::make_literal(lhs), scsql::make_literal(rhs)),
            env, machine_);
        if (keep.kind() == Kind::kBool && !keep.as_bool()) filters_hold = false;
      }
      if (query->select->exprs.size() != 1) {
        throw Error("exactly one select expression is supported", query->select->pos);
      }
      result_expr = co_await expand(query->select->exprs[0], env);
    } else {
      result_expr = co_await expand(query, env);
    }

    // The client manager is itself an RP on front-end node 0.
    Rp& cm = make_rp(hw::Location{hw::kFrontEnd, 0},
                     filters_hold ? result_expr : nullptr, env, /*is_client=*/true);

    const double bind_done = sim.now();
    if (auto* trace = machine_->trace()) {
      trace->interval("engine", "bind", t0, bind_done);
    }

    // Compile every RP's subquery into its SQEP; extract()/merge() calls
    // wire the stream connections as a side effect.
    for (auto& rp : rps_) {
      if (rp->query) wire_rp(*rp);
    }
    report->setup_s = sim.now() - t0;
    if (auto* trace = machine_->trace()) {
      trace->interval("engine", "wire", bind_done, sim.now());
    }

    for (auto& rp : rps_) {
      if (rp->id != cm.id) sim.spawn(run_rp(*rp));
    }
    co_await run_rp(cm);
    co_await cm.done->wait();
    // End sampling *here*, inside the event at the statement's last
    // timestamp: the cancelled tick parked past this instant is then
    // consumed silently and can never advance the clock run_statement
    // hands to the next statement.
    sampler_->finish();
    report->elapsed_s = sim.now() - t0;
    if (auto* trace = machine_->trace()) {
      trace->interval("engine", "run", report->setup_s + t0, sim.now());
    }
  } catch (...) {
    record_error(std::current_exception());
  }
}

sim::Task<Object> Engine::eval_async(ExprPtr expr, Env& env) {
  if (expr->kind == ExprKind::kCall) {
    if (expr->name == "sp") co_return co_await eval_sp(*expr, env);
    if (expr->name == "spv") co_return co_await eval_spv(*expr, env);
    if (functions_.contains(expr->name)) {
      throw Error("query function '" + expr->name +
                      "' returns a stream and cannot be bound to a variable; call it in "
                      "the select expression",
                  expr->pos);
    }
  }
  co_return eval_const(expr, env, machine_);
}

sim::Task<ExprPtr> Engine::expand(ExprPtr expr, Env& env) {
  SCSQ_CHECK(expr != nullptr) << "null expression in expand";
  switch (expr->kind) {
    case ExprKind::kLiteral:
    case ExprKind::kVar:
    case ExprKind::kSelect:
      co_return expr;
    case ExprKind::kCall: {
      if (expr->name == "sp") {
        Object handle = co_await eval_sp(*expr, env);
        co_return scsql::make_literal(std::move(handle), expr->pos);
      }
      if (expr->name == "spv") {
        Object handles = co_await eval_spv(*expr, env);
        co_return scsql::make_literal(std::move(handles), expr->pos);
      }
      if (functions_.contains(expr->name)) {
        co_return co_await inline_function(*expr, env);
      }
      [[fallthrough]];
    }
    case ExprKind::kBagCtor:
    case ExprKind::kBinary:
    case ExprKind::kNeg: {
      bool changed = false;
      std::vector<ExprPtr> args;
      args.reserve(expr->args.size());
      for (const auto& a : expr->args) {
        auto na = co_await expand(a, env);
        changed |= (na != a);
        args.push_back(std::move(na));
      }
      if (!changed) co_return expr;
      auto out = std::make_shared<scsql::Expr>(*expr);
      out->args = std::move(args);
      co_return out;
    }
  }
  co_return expr;
}

std::optional<AllocationSeq*> Engine::allocation_from(const ExprPtr& expr, const Env& env) {
  if (!expr) return std::nullopt;
  Object v = eval_const(expr, env, machine_);
  auto seq = std::make_unique<AllocationSeq>();
  if (v.kind() == Kind::kInt) {
    seq->nodes.push_back(static_cast<int>(v.as_int()));
  } else if (v.kind() == Kind::kBag) {
    for (const auto& el : v.as_bag()) {
      if (el.kind() != Kind::kInt) {
        throw Error("allocation sequence must contain node numbers", expr->pos);
      }
      seq->nodes.push_back(static_cast<int>(el.as_int()));
    }
  } else {
    throw Error("allocation sequence must be a node number or a stream of node numbers",
                expr->pos);
  }
  alloc_seqs_.push_back(std::move(seq));
  return alloc_seqs_.back().get();
}

sim::Task<Object> Engine::eval_sp(const scsql::Expr& call, Env& env) {
  if (call.args.empty() || call.args.size() > 3) {
    throw Error("sp(subquery [, cluster [, allocation]]) takes 1-3 arguments", call.pos);
  }
  std::string cluster = options_.default_cluster;
  if (call.args.size() >= 2) {
    Object c = eval_const(call.args[1], env, machine_);
    if (c.kind() != Kind::kStr) throw Error("sp() cluster must be a string", call.pos);
    cluster = c.as_str();
  }
  if (!machine_->has_cluster(cluster)) {
    throw Error("unknown cluster '" + cluster + "'", call.pos);
  }
  AllocationSeq* seq = nullptr;
  if (call.args.size() == 3) seq = *allocation_from(call.args[2], env);

  // Expand nested sp()/function calls inside the shipped subquery now —
  // all stream processes of a CQ are created at submission.
  ExprPtr subquery = co_await expand(call.args[0], env);
  SpHandle handle = co_await spawn_rp(cluster, std::move(subquery), env, seq);
  co_return Object{std::move(handle)};
}

sim::Task<Object> Engine::eval_spv(const scsql::Expr& call, Env& env) {
  if (call.args.empty() || call.args.size() > 3) {
    throw Error("spv(select [, cluster [, allocation]]) takes 1-3 arguments", call.pos);
  }
  if (call.args[0]->kind != ExprKind::kSelect) {
    throw Error("spv() first argument must be a select of subqueries", call.pos);
  }
  std::string cluster = options_.default_cluster;
  if (call.args.size() >= 2) {
    Object c = eval_const(call.args[1], env, machine_);
    if (c.kind() != Kind::kStr) throw Error("spv() cluster must be a string", call.pos);
    cluster = c.as_str();
  }
  if (!machine_->has_cluster(cluster)) {
    throw Error("unknown cluster '" + cluster + "'", call.pos);
  }
  AllocationSeq* seq = nullptr;
  if (call.args.size() == 3) seq = *allocation_from(call.args[2], env);

  const auto& select = call.args[0]->select;
  if (select->exprs.size() != 1) {
    throw Error("spv() select must have exactly one expression", select->pos);
  }
  std::set<std::string> pre_bound;
  for (const auto& [k, v] : env) pre_bound.insert(k);
  auto bound = resolve::bind(*select, pre_bound);

  // Enumerate rows: the cartesian product of the 'in' collections.
  std::vector<std::pair<std::string, Bag>> enums;
  for (const auto* e : bound.enumerations) {
    Object coll = co_await eval_async(e->rhs, env);
    if (coll.kind() != Kind::kBag) {
      throw Error("'in' expects a bag/stream to enumerate", e->pos);
    }
    enums.emplace_back(e->lhs->name, coll.as_bag());
  }

  Bag handles;
  std::vector<std::size_t> idx(enums.size(), 0);
  const auto total_rows = [&] {
    std::size_t n = 1;
    for (const auto& [name, bag] : enums) n *= bag.size();
    return enums.empty() ? 1 : n;
  }();
  for (std::size_t row = 0; row < total_rows; ++row) {
    Env row_env = env;
    std::size_t rem = row;
    for (std::size_t k = 0; k < enums.size(); ++k) {
      const auto& [name, bag] = enums[k];
      if (bag.empty()) co_return Object{Bag{}};
      row_env[name] = bag[rem % bag.size()];
      rem /= bag.size();
    }
    // Row-local bindings (rare; none in the paper's queries, but legal).
    for (const auto* b : bound.bindings) {
      const bool var_on_lhs = b->lhs->kind == ExprKind::kVar && !row_env.contains(b->lhs->name);
      const auto& var = var_on_lhs ? b->lhs->name : b->rhs->name;
      const auto& value_expr = var_on_lhs ? b->rhs : b->lhs;
      row_env[var] = co_await eval_async(value_expr, row_env);
    }
    bool keep = true;
    for (const auto* f : bound.filters) {
      Object v = eval_const(
          scsql::make_binary(f->op, scsql::make_literal(eval_const(f->lhs, row_env, machine_)),
                             scsql::make_literal(eval_const(f->rhs, row_env, machine_))),
          row_env, machine_);
      if (v.kind() == Kind::kBool && !v.as_bool()) keep = false;
    }
    if (!keep) continue;
    ExprPtr subquery = co_await expand(select->exprs[0], row_env);
    SpHandle h = co_await spawn_rp(cluster, std::move(subquery), row_env, seq);
    handles.emplace_back(std::move(h));
  }
  co_return Object{std::move(handles)};
}

sim::Task<ExprPtr> Engine::inline_function(const scsql::Expr& call, Env& env) {
  const auto& fn = functions_.at(call.name);
  if (call.args.size() != fn->params.size()) {
    throw Error(call.name + "() takes " + std::to_string(fn->params.size()) +
                    " argument(s)",
                call.pos);
  }
  // Fresh names for parameters and body-local variables.
  const std::string prefix = "__" + fn->name + std::to_string(next_fn_inline_++) + "_";
  std::map<std::string, std::string> renames;
  for (const auto& p : fn->params) renames[p.name] = prefix + p.name;
  if (fn->body->kind == ExprKind::kSelect) {
    for (const auto& d : fn->body->select->decls) renames[d.name] = prefix + d.name;
  }
  // Bind argument values under the renamed parameter names.
  for (std::size_t i = 0; i < fn->params.size(); ++i) {
    env[renames.at(fn->params[i].name)] = co_await eval_async(call.args[i], env);
  }

  if (fn->body->kind != ExprKind::kSelect) {
    co_return co_await expand(substitute_vars(fn->body, renames), env);
  }

  auto body = substitute_vars(fn->body->select, renames);
  std::set<std::string> pre_bound;
  for (const auto& [k, v] : env) pre_bound.insert(k);
  auto bound = resolve::bind(*body, pre_bound);
  if (!bound.enumerations.empty()) {
    throw Error("enumeration inside a query function body is not supported",
                bound.enumerations.front()->pos);
  }
  for (const auto* b : bound.bindings) {
    const bool var_on_lhs = b->lhs->kind == ExprKind::kVar && !env.contains(b->lhs->name);
    const auto& var = var_on_lhs ? b->lhs->name : b->rhs->name;
    const auto& value_expr = var_on_lhs ? b->rhs : b->lhs;
    env[var] = co_await eval_async(value_expr, env);
  }
  if (body->exprs.size() != 1) {
    throw Error("query function body must select exactly one expression", body->pos);
  }
  co_return co_await expand(body->exprs[0], env);
}

sim::Task<SpHandle> Engine::spawn_rp(const std::string& cluster, ExprPtr subquery,
                                     const Env& outer_env, AllocationSeq* seq) {
  auto& coord = coordinator(cluster);
  int node = co_await coord.allocate_node(seq);

  // Capture only the variables the subquery references ("by shipping
  // stream handles we avoid unnecessary data shipping").
  Env captured;
  for (const auto& name : resolve::free_vars(subquery)) {
    auto it = outer_env.find(name);
    if (it != outer_env.end()) captured[name] = it->second;
  }
  Rp& rp = make_rp(hw::Location{cluster, node}, std::move(subquery), std::move(captured),
                   /*is_client=*/false);
  SCSQ_LOG(kDebug) << "spawned rp#" << rp.id << " at " << rp.loc.to_string() << ": "
                   << rp.query->to_string();
  co_return SpHandle{rp.id, cluster};
}

// ---------------------------------------------------------------------
// Wiring and running
// ---------------------------------------------------------------------

Engine::Rp& Engine::make_rp(hw::Location loc, ExprPtr query, Env env, bool is_client) {
  auto rp = std::make_unique<Rp>();
  rp->id = is_client ? 0 : next_rp_id_++;
  rp->loc = std::move(loc);
  rp->query = std::move(query);
  rp->env = std::move(env);
  rp->is_client = is_client;
  rp->done = std::make_unique<sim::Event>(machine_->sim());
  rps_.push_back(std::move(rp));
  return *rps_.back();
}

Engine::Rp& Engine::find_rp(std::uint64_t id) {
  for (auto& rp : rps_) {
    if (rp->id == id) return *rp;
  }
  throw Error("unknown stream process #" + std::to_string(id));
}

void Engine::wire_rp(Rp& rp) {
  rp.ctx.sim = &machine_->sim();
  rp.ctx.loc = rp.loc;
  rp.ctx.cpu = &machine_->cpu_of(rp.loc);
  rp.ctx.node = machine_->node_params(rp.loc);
  rp.ctx.const_eval = [this, &rp](const ExprPtr& e) {
    return eval_const(e, rp.env, machine_);
  };
  rp.ctx.subscribe = [this, &rp](const SpHandle& h) -> transport::ReceiverDriver& {
    return connect(h, rp);
  };
  rp.ctx.stream_source = [this](const std::string& name) {
    auto it = stream_sources_.find(name);
    if (it == stream_sources_.end()) {
      throw Error("unknown stream source '" + name + "'");
    }
    return it->second;
  };
  rp.root = plan::build_plan(rp.query, rp.ctx);
}

transport::ReceiverDriver& Engine::connect(const SpHandle& producer_handle, Rp& consumer) {
  Rp& producer = find_rp(producer_handle.id);
  consumer.receivers.push_back(std::make_unique<transport::ReceiverDriver>(
      machine_->sim(), driver_params_for(consumer.loc),
      machine_->cpu_of(consumer.loc)));
  auto& rx = *consumer.receivers.back();
  auto link = transport::make_link(*machine_, producer.loc, consumer.loc, rx.inbox());
  if (auto* trace = machine_->trace()) {
    link->set_flow_trace(trace, "rp" + std::to_string(producer.id),
                         "rp" + std::to_string(consumer.id));
  }
  if (sampler_->active()) {
    // Per-window latency quantiles for this connection. The rp labels
    // keep keys unique when two connections share endpoints; the link
    // (and its LogHistogram) outlives the sampler run — finish() drops
    // the registration before rps_ is torn down.
    sampler_->add_log_histogram(
        obs::metric_key("transport.link.latency",
                        {{"type", link->type()},
                         {"src", producer.loc.to_string()},
                         {"dst", consumer.loc.to_string()},
                         {"src_rp", std::to_string(producer.id)},
                         {"dst_rp", std::to_string(consumer.id)}}),
        &link->stats().latency);
  }
  producer.senders.push_back(std::make_unique<transport::SenderDriver>(
      machine_->sim(), driver_params_for(producer.loc),
      machine_->cpu_of(producer.loc), std::move(link)));
  producer.consumer_ids.push_back(consumer.id);
  return rx;
}

sim::Task<void> Engine::run_rp(Rp& rp) {
  auto& rpsim = machine_->sim();
  auto* trace = machine_->trace();
  const std::string track = "rp" + std::to_string(rp.id);
  if (trace) trace->instant(track, "start", rpsim.now());
  try {
    if (rp.root != nullptr) {
      while (!stop_requested_) {
        const double drive_start = rpsim.now();
        auto obj = co_await rp.root->next();
        rp.drive_s += rpsim.now() - drive_start;
        if (!obj) break;
        ++rp.pulls;
        // An object pulled after the stop goes nowhere; the client still
        // keeps what it pulled.
        if (stop_requested_ && !rp.is_client) break;
        rp.elements_out += 1;
        // Sampled, not per-element: an unthrottled counter track would
        // dominate the trace for multi-thousand-element streams.
        if (trace && (rp.elements_out & 0x3F) == 0) {
          trace->counter(track, "elements_out", rpsim.now(),
                         static_cast<double>(rp.elements_out));
        }
        if (rp.is_client) {
          SCSQ_CHECK(results_sink_ != nullptr) << "no active result sink";
          results_sink_->push_back(std::move(*obj));
          // Stop condition: enough results collected.
          if (options_.max_results > 0 && results_sink_->size() >= options_.max_results) {
            initiate_stop();
          }
          continue;
        }
        if (rp.senders.empty()) continue;  // no subscribers: discard
        if (rp.senders.size() == 1) {
          co_await rp.senders[0]->push(std::move(*obj));
        } else {
          // Stream splitting: every subscriber receives the full
          // stream (the radix2 query extracts c from both halves).
          for (auto& s : rp.senders) co_await s->push(*obj);
        }
      }
    }
    for (auto& s : rp.senders) co_await s->finish();
  } catch (...) {
    record_error(std::current_exception());
  }
  if (trace) {
    trace->counter(track, "elements_out", rpsim.now(),
                   static_cast<double>(rp.elements_out));
    trace->instant(track, "done", rpsim.now());
  }
  rp.done->set();
}

void Engine::initiate_stop() {
  if (stop_requested_) return;
  stop_requested_ = true;
  SCSQ_LOG(kDebug) << "stopping continuous query: closing " << rps_.size()
                   << " stream process(es)";
  // Close every receiver inbox: blocked deliveries discard their frames,
  // receive loops see end-of-stream, and producer RPs observe the stop
  // flag on their next iteration — the control-message teardown of §2.2.
  for (auto& rp : rps_) {
    for (auto& rx : rp->receivers) rx->inbox().close();
  }
}

void Engine::record_error(std::exception_ptr e) {
  if (!error_) error_ = std::move(e);
}

}  // namespace scsq::exec
