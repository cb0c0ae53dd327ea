#include "obs/sim_bridge.hpp"

#include "obs/metrics.hpp"

namespace scsq::obs {

void bridge_sim_perf(Registry& registry, const sim::PerfCounters& perf) {
  registry.counter("sim.events_dispatched").set_total(perf.events_dispatched);
  registry.counter("sim.heap_pushes").set_total(perf.heap_pushes);
  registry.counter("sim.fifo_pushes").set_total(perf.fifo_pushes);
  registry.counter("sim.callbacks_run").set_total(perf.callbacks_run);
  registry.counter("sim.channel_sends").set_total(perf.channel_sends);
  registry.counter("sim.channel_recvs").set_total(perf.channel_recvs);
  registry.counter("sim.channel_waits").set_total(perf.channel_waits);
  registry.counter("sim.wakeups").set_total(perf.wakeups);
  registry.gauge("sim.peak_queue_depth").set(static_cast<double>(perf.peak_queue_depth));
  // Event-queue internals: cancelled call_at nodes the dispatch loop
  // consumed silently. metrics_diff exempts the sim.queue.* family from
  // regression gating, like the layout gauges.
  registry.counter("sim.queue.cancel_consumed").set_total(perf.cancel_consumed);
  // Coroutine-frame pool (process-wide; see sim/task.hpp). Bridged here
  // so frame-recycling health is visible next to the kernel counters.
  const sim::CoroPoolStats pool = sim::coro_pool_stats();
  registry.counter("sim.coro.bucket_reused").set_total(pool.bucket_reused);
  registry.counter("sim.coro.chunk_allocs").set_total(pool.chunk_allocs);
  registry.counter("sim.coro.oversize_allocs").set_total(pool.oversize_allocs);
}

}  // namespace scsq::obs
