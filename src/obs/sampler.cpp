#include "obs/sampler.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace scsq::obs {

using util::json::write_escaped;
using util::json::write_number;

double Sampler::Window::counter_rate_sum(const std::string& substr) const {
  double total = 0.0;
  for (const auto& c : counters) {
    if (c.key.find(substr) != std::string::npos) total += c.rate;
  }
  return total;
}

std::uint64_t Sampler::Window::counter_delta_sum(const std::string& substr) const {
  std::uint64_t total = 0;
  for (const auto& c : counters) {
    if (c.key.find(substr) != std::string::npos) total += c.delta;
  }
  return total;
}

Sampler::Sampler(sim::Simulator& sim, Registry& registry, Options opts)
    : sim_(sim), registry_(registry), opts_(opts) {}

void Sampler::add_publisher(std::function<void()> fn) {
  SCSQ_CHECK(fn != nullptr) << "sampler publisher must be callable";
  publishers_.push_back(std::move(fn));
}

void Sampler::set_window_observer(std::function<void(const Window&, std::size_t)> fn) {
  window_observer_ = std::move(fn);
}

void Sampler::add_log_histogram(std::string key, const LogHistogram* hist) {
  if (!enabled() || !active_) return;
  SCSQ_CHECK(hist != nullptr) << "sampler log-histogram must be non-null";
  log_hists_.push_back(TrackedHist{std::move(key), hist, *hist});
}

void Sampler::begin(sim::Time t0, sim::Trace* trace) {
  if (!enabled()) return;
  finish();  // tolerate a missing finish() from an aborted prior run
  trace_ = trace;
  windows_.clear();
  log_hists_.clear();
  // Fresh counter baselines: run the pull-metrics hooks first so totals
  // accumulated before this statement do not leak into window 0.
  for (const auto& p : publishers_) p();
  prev_counters_.assign(registry_.size(), 0);
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const auto e = registry_.entry(i);
    if (e.counter) prev_counters_[i] = e.counter->value();
  }
  window_start_ = t0;
  active_ = true;
  timer_ = sim_.call_at(t0 + opts_.interval_s, [this] { tick(); });
  timer_armed_ = true;
}

void Sampler::finish() {
  if (!active_) return;
  if (timer_armed_) {
    sim_.cancel_timer(timer_);
    timer_armed_ = false;
  }
  if (sim_.now() > window_start_) take_window(sim_.now());
  // Registered histograms (per-link latency) die with the statement;
  // drop the pointers before teardown can dangle them.
  log_hists_.clear();
  trace_ = nullptr;
  active_ = false;
}

void Sampler::tick() {
  timer_armed_ = false;
  const sim::Time at = sim_.now();
  take_window(at);
  window_start_ = at;
  // Re-arm only while real events remain. Without the backstop the
  // sampler would chase an otherwise-drained queue forever; with it, the
  // last armed tick parks past the workload's end and finish() cancels
  // it before the clock could reach it.
  if (sim_.next_event_time() != sim::Simulator::kNoLimit) {
    timer_ = sim_.call_at(at + opts_.interval_s, [this] { tick(); });
    timer_armed_ = true;
  }
}

void Sampler::take_window(sim::Time t_end) {
  if (t_end <= window_start_) return;
  for (const auto& p : publishers_) p();
  const double dt = t_end - window_start_;
  Window w;
  w.t_start = window_start_;
  w.t_end = t_end;
  // Series registered since the last window baseline at zero — correct,
  // since every counter starts at zero.
  prev_counters_.resize(registry_.size(), 0);
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const auto e = registry_.entry(i);
    if (e.counter) {
      const std::uint64_t value = e.counter->value();
      const std::uint64_t delta = value - prev_counters_[i];
      prev_counters_[i] = value;
      if (delta != 0) {
        w.counters.push_back(CounterSample{metric_key(e.name, e.labels), delta,
                                           static_cast<double>(delta) / dt});
      }
    } else if (e.gauge) {
      w.gauges.push_back(GaugeSample{metric_key(e.name, e.labels), e.gauge->value()});
    }
  }
  for (auto& th : log_hists_) {
    const LogHistogram window = th.hist->delta_since(th.baseline);
    th.baseline = *th.hist;
    if (window.count() == 0) {
      // Idle window: keep the entry so consumers see the series exists,
      // with quantiles that write_jsonl emits as nulls.
      w.histograms.push_back(HistWindow{th.key, 0, 0.0, 0.0, 0.0, 0.0});
      continue;
    }
    w.histograms.push_back(HistWindow{th.key, window.count(), window.mean(),
                                      window.p50(), window.p95(), window.p99()});
  }
  if (trace_ != nullptr) {
    // Chrome "C" tracks: one series per metric *name*, rates aggregated
    // across label sets (per-label tracks would drown Perfetto).
    std::vector<std::pair<std::string, double>> by_name;
    for (const auto& c : w.counters) {
      const std::string name = c.key.substr(0, c.key.find('{'));
      auto it = std::find_if(by_name.begin(), by_name.end(),
                             [&](const auto& p) { return p.first == name; });
      if (it == by_name.end()) {
        by_name.emplace_back(name, c.rate);
      } else {
        it->second += c.rate;
      }
    }
    for (const auto& [name, rate] : by_name) {
      trace_->counter("metrics", name + "/s", t_end, rate);
    }
    trace_->counter("sampler", "sim.queue_depth", t_end,
                    static_cast<double>(sim_.queue_depth()));
  }
  windows_.push_back(std::move(w));
  if (window_observer_) window_observer_(windows_.back(), windows_.size() - 1);
}

void Sampler::write_jsonl(std::ostream& os) const {
  const auto prev_precision = os.precision(17);
  for (std::size_t n = 0; n < windows_.size(); ++n) {
    const Window& w = windows_[n];
    os << "{\"window\":" << n << ",\"t_start\":" << w.t_start
       << ",\"t_end\":" << w.t_end << ",\"counters\":{";
    bool first = true;
    for (const auto& c : w.counters) {
      if (!first) os << ',';
      first = false;
      os << '"';
      write_escaped(os, c.key);
      os << "\":{\"delta\":" << c.delta << ",\"rate\":" << c.rate << '}';
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& g : w.gauges) {
      if (!first) os << ',';
      first = false;
      os << '"';
      write_escaped(os, g.key);
      os << "\":";
      write_number(os, g.value);
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& h : w.histograms) {
      if (!first) os << ',';
      first = false;
      os << '"';
      write_escaped(os, h.key);
      if (h.count == 0) {
        // No observations: there is no meaningful quantile, and 0.0
        // would be indistinguishable from a genuinely-zero latency.
        os << "\":{\"count\":0,\"mean\":null,\"p50\":null,\"p95\":null,"
           << "\"p99\":null}";
      } else {
        os << "\":{\"count\":" << h.count << ",\"mean\":" << h.mean
           << ",\"p50\":" << h.p50 << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99
           << '}';
      }
    }
    os << "}}\n";
  }
  os.precision(prev_precision);
}

}  // namespace scsq::obs
