// Sim-time telemetry sampler: periodic windowed snapshots of the
// metrics Registry, driven by the simulation clock.
//
// A figure table in this repo answers "what was the steady state"; the
// sampler answers "how did it get there" — per-window counter deltas and
// rates, gauge point samples, and per-window latency quantiles, emitted
// as a JSONL time series (one line per window) and, when a Trace is
// attached, as Chrome-trace "C" counter tracks alongside the existing
// busy/flow events.
//
// Determinism contract (the reason this lives on the kernel's call_at
// timers and not on wall-clock threads): every sample is a zero-duration
// read-only callback. Ticks interleave with real events but delay
// nothing, and the statement's own event order within a timestamp is
// untouched. When the workload drains, the in-flight tick is
// cancel_timer()'d; the kernel consumes the parked node silently — it
// does not advance now(), does not count as a dispatched event, and
// cannot keep run() from returning. Net effect: every figure table and
// every elapsed_s is byte-identical with the sampler on or off, at any
// SCSQ_BENCH_THREADS setting. The only
// sampler-visible perturbations (extra heap pushes, peak queue depth,
// the events/s stderr banner) are confined to side channels.
//
// Windowing model:
//  - Counters: per-window delta + rate (delta / window length), computed
//    against an index-based baseline — Registry entries are append-only,
//    so entry i is the same series across the whole run and a series
//    registered mid-run baselines at zero (counters start at zero).
//    Zero-delta counters are omitted from the window (compactness).
//  - Gauges: point sample at the window boundary, every registered gauge.
//  - LogHistograms (per-link latency etc.) are not Registry entries;
//    interested parties register them with add_log_histogram() and the
//    sampler forms per-window quantiles via LogHistogram::delta_since.
//
// Threading: strictly the owning Simulator's thread, like the Registry.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace scsq::sim {
class Trace;
}

namespace scsq::obs {

class Sampler {
 public:
  struct Options {
    /// Window length in simulated seconds; <= 0 disables the sampler
    /// entirely (begin/finish become no-ops).
    double interval_s = 0.0;
  };

  /// One counter series inside a window. `key` is metric_key(name,labels).
  struct CounterSample {
    std::string key;
    std::uint64_t delta = 0;  // increments inside this window
    double rate = 0.0;        // delta / (t_end - t_start)
  };

  struct GaugeSample {
    std::string key;
    double value = 0.0;
  };

  /// Per-window quantiles of one registered LogHistogram. A window with
  /// no observations still produces an entry (count == 0) so consumers
  /// can tell "link idle this window" from "link not registered"; its
  /// quantile fields are meaningless and write_jsonl emits them as JSON
  /// nulls.
  struct HistWindow {
    std::string key;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  struct Window {
    double t_start = 0.0;
    double t_end = 0.0;
    std::vector<CounterSample> counters;    // nonzero deltas only
    std::vector<GaugeSample> gauges;        // every registered gauge
    std::vector<HistWindow> histograms;     // every registered histogram

    /// Sum of `rate` over counters whose key contains `substr`
    /// (substring match, same convention as the \metrics filter).
    double counter_rate_sum(const std::string& substr) const;
    std::uint64_t counter_delta_sum(const std::string& substr) const;
  };

  Sampler(sim::Simulator& sim, Registry& registry, Options opts);

  bool enabled() const { return opts_.interval_s > 0.0; }
  double interval_s() const { return opts_.interval_s; }

  /// Registers a hook run immediately before every snapshot, so pull-
  /// model metrics (Machine::publish_metrics and friends) are fresh in
  /// the Registry when the window closes. Survives begin()/finish().
  void add_publisher(std::function<void()> fn);

  /// Installs the window observer: called synchronously right after each
  /// window is appended to windows(), with the window and its index.
  /// Runs on the simulator thread inside the zero-duration sample
  /// callback, so the observer must not advance simulated time. One
  /// observer only (the engine fans out to monitors and listeners);
  /// survives begin()/finish(). Pass nullptr to clear.
  void set_window_observer(std::function<void(const Window&, std::size_t)> fn);

  /// Registers a LogHistogram for per-window quantile extraction under
  /// `key`. The pointer must stay valid until finish() — which clears
  /// all registrations, because the histograms (per-link latency) are
  /// torn down with the statement. Baseline = the histogram's current
  /// contents, so only observations after registration are windowed.
  void add_log_histogram(std::string key, const LogHistogram* hist);

  /// Starts a sampling run at simulated time t0: clears previous
  /// windows, baselines every counter, arms the first tick at
  /// t0 + interval. `trace` (may be null) receives "C" counter events at
  /// each window boundary; it is passed here rather than at construction
  /// because the shell attaches its Trace after the stack is built.
  void begin(sim::Time t0, sim::Trace* trace);

  /// Ends the sampling run: cancels the in-flight tick (the kernel
  /// consumes the parked node without observable effect), takes the
  /// final partial window (skipped when empty), and drops LogHistogram
  /// registrations. Idempotent; safe to call with sampling disabled.
  void finish();

  bool active() const { return active_; }
  const std::vector<Window>& windows() const { return windows_; }

  /// One JSONL line per window:
  /// {"window":N,"t_start":..,"t_end":..,"counters":{key:{"delta":..,
  /// "rate":..}},"gauges":{..},"histograms":{key:{"count":..,..}}}
  /// Every line starts with `{"window"` so harnesses can splice extra
  /// leading fields (the bench run_points tag lines with their point).
  void write_jsonl(std::ostream& os) const;

 private:
  struct TrackedHist {
    std::string key;
    const LogHistogram* hist;
    LogHistogram baseline;
  };

  void tick();
  void take_window(sim::Time t_end);

  sim::Simulator& sim_;
  Registry& registry_;
  Options opts_;
  sim::Trace* trace_ = nullptr;
  std::function<void(const Window&, std::size_t)> window_observer_;
  std::vector<std::function<void()>> publishers_;
  std::vector<TrackedHist> log_hists_;
  std::vector<std::uint64_t> prev_counters_;  // by Registry entry index
  std::vector<Window> windows_;
  sim::Time window_start_ = 0.0;
  sim::Simulator::TimerId timer_;
  bool timer_armed_ = false;
  bool active_ = false;
};

}  // namespace scsq::obs
