// metrics_diff — compare metrics/bench JSON documents and flag
// performance regressions beyond a threshold.
//
// Modes:
//
//   metrics_diff [--threshold=0.2] --check BASELINE.json
//     Self-check of a committed baseline (BENCH_kernels.json style):
//     every object containing a numeric "new" member is a tracked
//     measurement; fail (exit 1) when new < seed*(1-threshold).
//     Also validates that the file parses as strict JSON. Three seed
//     states are distinguished:
//       * numeric "seed"  — compared against "new" (regression gate);
//       * "seed": null    — intentionally unbaselined (e.g. the metric
//                           did not exist before the change); skipped
//                           silently;
//       * no "seed" key   — a measurement whose baseline was forgotten:
//                           reported as MISSING-BASELINE and, when no
//                           real regression also fired, exits 3 so CI
//                           can tell "record a seed" apart from "value
//                           regressed".
//
//   metrics_diff [--threshold=0.2] [--filter=SUB] [--top=N] OLD.json NEW.json
//     Structural diff: every numeric leaf is flattened to a dotted path
//     (obs registry exports, bench JSONL records, bench baselines all
//     work) and matching paths are compared. Leaves present in only one
//     file are listed; a drop beyond the threshold at any shared path
//     fails (exit 1). Files holding JSON-lines (one document per line,
//     e.g. SCSQ_METRICS_OUT output) are wrapped into an array first.
//     --filter keeps only leaf paths containing SUB; --top caps the
//     CHANGED lines at the N largest relative changes (REGRESSION and
//     ONLY-* lines always print).
//
//   metrics_diff --check-profile PROFILE.json
//     Validates EXPLAIN ANALYZE output (SCSQ_PROFILE_OUT JSONL or a
//     single profile document): every profile's attribution must sum to
//     its elapsed time within 0.1% — the profiler's core invariant.
//     Exit 1 when violated, exit 2 when the file holds no profiles.
//
//   metrics_diff [--threshold=0.2] --profile-diff OLD.json NEW.json
//     Pairs profile records by position and compares per-cause
//     attribution shares; fail (exit 1) when any cause's share of
//     elapsed time grew by more than the threshold (absolute, e.g. 0.2
//     = 20 percentage points) — gating attribution regressions such as
//     packetization waste creeping up.
//
//   metrics_diff [--series=SUB] --timeseries SERIES.jsonl
//     Analyzes a telemetry-sampler time series (SCSQ_TIMESERIES_OUT
//     JSONL). Records are grouped by their "point" tag (untagged raw
//     sampler output is one point). Per point the windows are
//     validated (t_start < t_end, contiguous coverage, finite
//     non-negative counter deltas/rates — exit 1 on violation) and a
//     primary rate per window is formed by summing the rates of every
//     counter whose key contains --series. Steady state is the set of
//     windows within ±25% of the median nonzero rate; the report gives
//     ramp time (start to the first steady window), steady mean, peak
//     and p99 window rate.
//
//   metrics_diff [--threshold=0.2] [--series=SUB] --timeseries OLD NEW
//     Pairs points across two time-series files and compares their
//     steady-state mean rates; fail (exit 1) when a point's steady
//     rate drops below old*(1-threshold). Identical inputs exit 0.
//
//   metrics_diff --alerts ALERTS.jsonl
//     Validates and summarizes a monitor-alert stream (SCSQ_MONITOR_OUT
//     JSONL, obs::write_alerts_jsonl shape). Per record: the monitor
//     name, query, numeric window index and row, window bounds with
//     t_start < t_end, and a "value" member must all be present (exit 1
//     on violation; no cross-record window monotonicity is required —
//     appended multi-run files restart their indices). The summary
//     gives per-monitor alert counts, distinct windows, and the fired
//     time range. Exit 2 when the file holds no alert records.
//
// Exit codes: 0 ok, 1 regression/violation found, 2 usage/parse error,
// 3 (--check only) measurement lacking a "seed" key with no regression.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

using scsq::util::json::ParseError;
using scsq::util::json::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "metrics_diff: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Whole-document parse, falling back to JSON-lines (each non-empty line
/// one document, collected into an array).
Value parse_file(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return scsq::util::json::parse(text);
  } catch (const ParseError&) {
    std::vector<Value> docs;
    std::istringstream lines(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      try {
        docs.push_back(scsq::util::json::parse(line));
      } catch (const ParseError& e) {
        std::fprintf(stderr, "metrics_diff: %s:%zu: %s\n", path.c_str(), lineno, e.what());
        std::exit(2);
      }
    }
    if (docs.empty()) {
      std::fprintf(stderr, "metrics_diff: %s: no JSON documents\n", path.c_str());
      std::exit(2);
    }
    return Value::make_array(std::move(docs));
  }
}

/// Execution-layout gauge families: transport.frame_pool.* (host-side
/// frame recycling counters), sim.queue.* (ladder-queue internals —
/// rung spills and bottom resorts are zero under SCSQ_EVENT_QUEUE=heap)
/// and sim.coro.* (process-wide coroutine-frame recycling, which
/// accumulates across every run in the process). These describe HOW the
/// host drove a run, not WHAT the simulation produced, and legitimately
/// differ between builds and between runs at different SCSQ_EVENT_QUEUE
/// even though every simulated result is byte-identical — so neither
/// the --check floor nor the diff regression gate applies to them.
bool is_layout_gauge(const std::string& path) {
  return path.find("transport.frame_pool.") != std::string::npos ||
         path.find("sim.queue.") != std::string::npos ||
         path.find("sim.coro.") != std::string::npos;
}

/// Tallies from a --check walk over a baseline document.
struct CheckTally {
  int regressions = 0;  ///< numeric seed, new below the floor
  int inspected = 0;    ///< numeric seed, compared
  int skipped = 0;      ///< "seed": null — intentionally unbaselined
  int missing = 0;      ///< numeric "new" with no "seed" key at all
};

/// Recursively checks measurement objects (any object with a numeric
/// "new" member). A numeric "seed" gates a regression; an explicit
/// "seed": null opts the entry out; an *absent* seed key is a forgotten
/// baseline and is reported separately so CI can distinguish "record a
/// seed for this new benchmark" from "this value regressed".
void check_baseline(const Value& v, const std::string& path, double threshold,
                    CheckTally* tally) {
  if (v.is_object()) {
    const Value* seed = v.find("seed");
    const Value* fresh = v.find("new");
    if (fresh != nullptr && fresh->is_number()) {
      if (is_layout_gauge(path)) {
        ++tally->skipped;  // layout descriptor: no baseline expected
      } else if (seed == nullptr) {
        std::printf("MISSING-BASELINE %s: new=%g has no \"seed\" key (record one or mark "
                    "\"seed\": null)\n",
                    path.c_str(), fresh->as_number());
        ++tally->missing;
      } else if (seed->is_number()) {
        ++tally->inspected;
        const double floor = seed->as_number() * (1.0 - threshold);
        if (fresh->as_number() < floor) {
          std::printf("REGRESSION %s: new=%g < seed=%g - %.0f%% (floor %g)\n",
                      path.c_str(), fresh->as_number(), seed->as_number(),
                      threshold * 100.0, floor);
          ++tally->regressions;
        }
      } else {
        ++tally->skipped;  // "seed": null (or non-numeric): intentional
      }
      return;  // a measurement leaf; don't recurse further
    }
    for (const auto& [key, member] : v.as_object()) {
      check_baseline(member, path.empty() ? key : path + "." + key, threshold, tally);
    }
  } else if (v.is_array()) {
    const auto& items = v.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      check_baseline(items[i], path + "[" + std::to_string(i) + "]", threshold, tally);
    }
  }
}

int run_check(const std::string& path, double threshold) {
  const Value doc = parse_file(path);
  CheckTally tally;
  check_baseline(doc, "", threshold, &tally);
  std::printf("%s: %d measurement(s) checked, %d regression(s), %d unbaselined, "
              "%d missing baseline(s) (threshold %.0f%%)\n",
              path.c_str(), tally.inspected, tally.regressions, tally.skipped,
              tally.missing, threshold * 100.0);
  if (tally.regressions > 0) return 1;
  return tally.missing > 0 ? 3 : 0;
}

int run_diff(const std::string& old_path, const std::string& new_path, double threshold,
             const std::string& filter, long top) {
  const auto old_leaves = scsq::util::json::numeric_leaves(parse_file(old_path));
  const auto new_leaves = scsq::util::json::numeric_leaves(parse_file(new_path));
  const auto matches = [&](const std::string& path) {
    return filter.empty() || path.find(filter) != std::string::npos;
  };

  struct Change {
    std::string path;
    double old_value;
    double new_value;
    double pct;
  };
  std::vector<Change> changed;
  int regressions = 0;
  std::size_t shared = 0;
  for (const auto& [path, old_value] : old_leaves) {
    if (!matches(path)) continue;
    auto it = new_leaves.find(path);
    if (it == new_leaves.end()) {
      std::printf("ONLY-OLD   %s = %g\n", path.c_str(), old_value);
      continue;
    }
    ++shared;
    const double new_value = it->second;
    if (new_value == old_value) continue;
    if (is_layout_gauge(path)) {
      std::printf("LAYOUT     %s: %g -> %g (host execution layout; not gated)\n",
                  path.c_str(), old_value, new_value);
      continue;
    }
    const double floor = old_value * (1.0 - threshold);
    const bool regressed = old_value > 0.0 && new_value < floor;
    const double pct =
        old_value != 0.0 ? (new_value - old_value) / old_value * 100.0 : 0.0;
    if (regressed) {
      std::printf("REGRESSION %s: %g -> %g (%+.1f%%)\n", path.c_str(), old_value,
                  new_value, pct);
      ++regressions;
    } else {
      changed.push_back({path, old_value, new_value, pct});
    }
  }
  if (top >= 0 && changed.size() > static_cast<std::size_t>(top)) {
    std::stable_sort(changed.begin(), changed.end(), [](const Change& a, const Change& b) {
      return std::fabs(a.pct) > std::fabs(b.pct);
    });
    std::printf("(%zu changed leaf value(s), showing top %ld by |%%|)\n", changed.size(),
                top);
    changed.resize(static_cast<std::size_t>(top));
  }
  for (const auto& c : changed) {
    std::printf("CHANGED    %s: %g -> %g (%+.1f%%)\n", c.path.c_str(), c.old_value,
                c.new_value, c.pct);
  }
  for (const auto& [path, new_value] : new_leaves) {
    if (!matches(path)) continue;
    if (!old_leaves.contains(path)) std::printf("ONLY-NEW   %s = %g\n", path.c_str(), new_value);
  }
  std::printf("%zu shared leaf value(s), %d regression(s) (threshold %.0f%%)\n", shared,
              regressions, threshold * 100.0);
  return regressions > 0 ? 1 : 0;
}

// --- EXPLAIN ANALYZE profile checks ---

/// A profile object: numeric "elapsed_s" plus an "attribution" object
/// with numeric "attributed_total_s" (the obs::Profile JSON shape, found
/// standalone or nested inside SCSQ_PROFILE_OUT records).
bool is_profile(const Value& v) {
  if (!v.is_object()) return false;
  const Value* elapsed = v.find("elapsed_s");
  const Value* attribution = v.find("attribution");
  return elapsed != nullptr && elapsed->is_number() && attribution != nullptr &&
         attribution->is_object() && attribution->find("attributed_total_s") != nullptr &&
         attribution->find("attributed_total_s")->is_number();
}

void collect_profiles(const Value& v, std::vector<const Value*>* out) {
  if (v.is_object()) {
    if (is_profile(v)) {
      out->push_back(&v);
      return;
    }
    for (const auto& [key, member] : v.as_object()) collect_profiles(member, out);
  } else if (v.is_array()) {
    for (const auto& item : v.as_array()) collect_profiles(item, out);
  }
}

int run_check_profile(const std::string& path) {
  const Value doc = parse_file(path);
  std::vector<const Value*> profiles;
  collect_profiles(doc, &profiles);
  if (profiles.empty()) {
    std::fprintf(stderr, "metrics_diff: %s: no profiles found\n", path.c_str());
    return 2;
  }
  constexpr double kTolerance = 1e-3;  // the ±0.1% attribution invariant
  int violations = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const double elapsed = profiles[i]->find("elapsed_s")->as_number();
    const double attributed =
        profiles[i]->find("attribution")->find("attributed_total_s")->as_number();
    const double scale = std::max(std::fabs(elapsed), 1e-12);
    if (std::fabs(attributed - elapsed) / scale > kTolerance) {
      std::printf("VIOLATION profile[%zu]: attributed %.9g s != elapsed %.9g s (%.3f%% off)\n",
                  i, attributed, elapsed,
                  std::fabs(attributed - elapsed) / scale * 100.0);
      ++violations;
    }
  }
  std::printf("%s: %zu profile(s) checked, %d attribution violation(s)\n", path.c_str(),
              profiles.size(), violations);
  return violations > 0 ? 1 : 0;
}

/// cause -> share map from a profile's attribution.slices.
std::map<std::string, double> shares_of(const Value& profile) {
  std::map<std::string, double> shares;
  const Value* attribution = profile.find("attribution");
  const Value* slices = attribution != nullptr ? attribution->find("slices") : nullptr;
  if (slices == nullptr || !slices->is_array()) return shares;
  for (const auto& slice : slices->as_array()) {
    if (!slice.is_object()) continue;
    const Value* cause = slice.find("cause");
    const Value* share = slice.find("share");
    if (cause != nullptr && cause->is_string() && share != nullptr && share->is_number()) {
      shares[cause->as_string()] = share->as_number();
    }
  }
  return shares;
}

int run_profile_diff(const std::string& old_path, const std::string& new_path,
                     double threshold) {
  const Value old_doc = parse_file(old_path);
  const Value new_doc = parse_file(new_path);
  std::vector<const Value*> old_profiles, new_profiles;
  collect_profiles(old_doc, &old_profiles);
  collect_profiles(new_doc, &new_profiles);
  if (old_profiles.empty() || new_profiles.empty()) {
    std::fprintf(stderr, "metrics_diff: no profiles to compare (%zu old, %zu new)\n",
                 old_profiles.size(), new_profiles.size());
    return 2;
  }
  const std::size_t pairs = std::min(old_profiles.size(), new_profiles.size());
  if (old_profiles.size() != new_profiles.size()) {
    std::printf("(profile counts differ: %zu old vs %zu new; comparing first %zu)\n",
                old_profiles.size(), new_profiles.size(), pairs);
  }
  int regressions = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto old_shares = shares_of(*old_profiles[i]);
    const auto new_shares = shares_of(*new_profiles[i]);
    for (const auto& [cause, new_share] : new_shares) {
      const auto it = old_shares.find(cause);
      if (it == old_shares.end()) {
        // A cause the old profile never attributed at all — a new cost
        // category (e.g. a subsystem added by the change), not a share
        // regression of an existing one. Informational only.
        if (new_share > 0.01) {
          std::printf("NEW-CAUSE  profile[%zu] %s: share %.1f%% (absent in old)\n", i,
                      cause.c_str(), new_share * 100.0);
        }
        continue;
      }
      const double old_share = it->second;
      const double delta = new_share - old_share;
      if (delta > threshold) {
        std::printf("REGRESSION profile[%zu] %s: share %.1f%% -> %.1f%% (+%.1f points)\n",
                    i, cause.c_str(), old_share * 100.0, new_share * 100.0, delta * 100.0);
        ++regressions;
      } else if (std::fabs(delta) > 0.01) {
        std::printf("CHANGED    profile[%zu] %s: share %.1f%% -> %.1f%%\n", i,
                    cause.c_str(), old_share * 100.0, new_share * 100.0);
      }
    }
  }
  std::printf("%zu profile pair(s) compared, %d attribution regression(s) (threshold %.0f points)\n",
              pairs, regressions, threshold * 100.0);
  return regressions > 0 ? 1 : 0;
}

// --- windowed time-series analysis (SCSQ_TIMESERIES_OUT) ---

/// One sampler window reduced to the primary series: the sum of the
/// rates of every counter whose key contains the --series substring.
struct SeriesWindow {
  double t_start = 0.0;
  double t_end = 0.0;
  double rate = 0.0;
};

/// A sampler window record: the obs::Sampler JSONL shape, with or
/// without the "point" tag the bench harness splices in front.
bool is_window_record(const Value& v) {
  if (!v.is_object()) return false;
  const Value* t0 = v.find("t_start");
  const Value* t1 = v.find("t_end");
  const Value* counters = v.find("counters");
  return t0 != nullptr && t0->is_number() && t1 != nullptr && t1->is_number() &&
         counters != nullptr && counters->is_object();
}

/// Parses a time-series file into per-point window lists, validating
/// the sampler invariants along the way: positive-length windows,
/// contiguous coverage, finite non-negative deltas and rates. Returns
/// the number of violations printed.
int load_timeseries(const std::string& path, const std::string& series,
                    std::map<long, std::vector<SeriesWindow>>* points) {
  const Value doc = parse_file(path);
  std::vector<const Value*> records;
  if (doc.is_array()) {
    for (const auto& item : doc.as_array()) {
      if (is_window_record(item)) records.push_back(&item);
    }
  } else if (is_window_record(doc)) {
    records.push_back(&doc);
  }
  int violations = 0;
  std::size_t n = 0;
  for (const Value* rec : records) {
    ++n;
    const Value* point = rec->find("point");
    const long p =
        point != nullptr && point->is_number() ? static_cast<long>(point->as_number()) : 0;
    SeriesWindow w;
    w.t_start = rec->find("t_start")->as_number();
    w.t_end = rec->find("t_end")->as_number();
    if (!(w.t_end > w.t_start)) {
      std::printf("VIOLATION %s window %zu: t_end %g <= t_start %g\n", path.c_str(), n,
                  w.t_end, w.t_start);
      ++violations;
    }
    for (const auto& [key, counter] : rec->find("counters")->as_object()) {
      if (!counter.is_object()) continue;
      const Value* delta = counter.find("delta");
      const Value* rate = counter.find("rate");
      const double d = delta != nullptr && delta->is_number() ? delta->as_number() : -1.0;
      const double r = rate != nullptr && rate->is_number() ? rate->as_number() : -1.0;
      if (d < 0.0 || !std::isfinite(r) || r < 0.0) {
        std::printf("VIOLATION %s window %zu: counter %s has bad delta/rate\n",
                    path.c_str(), n, key.c_str());
        ++violations;
        continue;
      }
      if (key.find(series) != std::string::npos) w.rate += r;
    }
    auto& windows = (*points)[p];
    if (!windows.empty()) {
      const double prev_end = windows.back().t_end;
      const double tol = 1e-9 * std::max(1.0, std::fabs(prev_end));
      if (std::fabs(w.t_start - prev_end) > tol) {
        std::printf("VIOLATION %s window %zu (point %ld): t_start %.17g does not "
                    "continue previous t_end %.17g\n",
                    path.c_str(), n, p, w.t_start, prev_end);
        ++violations;
      }
    }
    windows.push_back(w);
  }
  return violations;
}

/// Steady-state summary of one point's windows: the windows whose
/// primary-series rate sits within ±25% of the median nonzero rate.
struct SteadyState {
  double ramp_s = 0.0;        ///< first window start -> first steady window start
  double steady_mean = 0.0;   ///< mean rate over steady windows
  double peak = 0.0;          ///< max window rate
  double p99 = 0.0;           ///< 99th-percentile window rate
  std::size_t steady_windows = 0;
  std::size_t windows = 0;
};

SteadyState analyze_point(const std::vector<SeriesWindow>& windows) {
  SteadyState s;
  s.windows = windows.size();
  if (windows.empty()) return s;
  std::vector<double> nonzero;
  for (const auto& w : windows) {
    s.peak = std::max(s.peak, w.rate);
    if (w.rate > 0.0) nonzero.push_back(w.rate);
  }
  std::vector<double> rates;
  rates.reserve(windows.size());
  for (const auto& w : windows) rates.push_back(w.rate);
  std::sort(rates.begin(), rates.end());
  s.p99 = rates[std::min(rates.size() - 1,
                         static_cast<std::size_t>(0.99 * static_cast<double>(rates.size())))];
  if (nonzero.empty()) return s;
  std::sort(nonzero.begin(), nonzero.end());
  const double median = nonzero[nonzero.size() / 2];
  bool first_steady_seen = false;
  double steady_sum = 0.0;
  for (const auto& w : windows) {
    if (std::fabs(w.rate - median) <= 0.25 * median) {
      if (!first_steady_seen) {
        first_steady_seen = true;
        s.ramp_s = w.t_start - windows.front().t_start;
      }
      steady_sum += w.rate;
      ++s.steady_windows;
    }
  }
  if (s.steady_windows > 0) steady_sum /= static_cast<double>(s.steady_windows);
  s.steady_mean = steady_sum;
  return s;
}

int run_timeseries_check(const std::string& path, const std::string& series) {
  std::map<long, std::vector<SeriesWindow>> points;
  const int violations = load_timeseries(path, series, &points);
  if (points.empty()) {
    std::fprintf(stderr, "metrics_diff: %s: no sampler windows found\n", path.c_str());
    return 2;
  }
  for (const auto& [p, windows] : points) {
    const SteadyState s = analyze_point(windows);
    std::printf("point %ld: %zu window(s), %zu steady, ramp %.6g s, "
                "steady mean %.6g /s, peak %.6g /s, p99 window %.6g /s [series '%s']\n",
                p, s.windows, s.steady_windows, s.ramp_s, s.steady_mean, s.peak, s.p99,
                series.c_str());
  }
  std::printf("%s: %zu point(s), %d violation(s)\n", path.c_str(), points.size(),
              violations);
  return violations > 0 ? 1 : 0;
}

int run_timeseries_diff(const std::string& old_path, const std::string& new_path,
                        const std::string& series, double threshold) {
  std::map<long, std::vector<SeriesWindow>> old_points, new_points;
  const int old_violations = load_timeseries(old_path, series, &old_points);
  const int new_violations = load_timeseries(new_path, series, &new_points);
  if (old_points.empty() || new_points.empty()) {
    std::fprintf(stderr, "metrics_diff: no sampler windows to compare (%zu old, %zu new)\n",
                 old_points.size(), new_points.size());
    return 2;
  }
  int regressions = 0;
  std::size_t pairs = 0;
  for (const auto& [p, old_windows] : old_points) {
    const auto it = new_points.find(p);
    if (it == new_points.end()) {
      std::printf("ONLY-OLD   point %ld (%zu windows)\n", p, old_windows.size());
      continue;
    }
    ++pairs;
    const SteadyState old_s = analyze_point(old_windows);
    const SteadyState new_s = analyze_point(it->second);
    if (old_s.steady_mean > 0.0 &&
        new_s.steady_mean < old_s.steady_mean * (1.0 - threshold)) {
      std::printf("REGRESSION point %ld: steady mean %.6g -> %.6g /s (%+.1f%%)\n", p,
                  old_s.steady_mean, new_s.steady_mean,
                  (new_s.steady_mean - old_s.steady_mean) / old_s.steady_mean * 100.0);
      ++regressions;
    } else if (new_s.steady_mean != old_s.steady_mean) {
      std::printf("CHANGED    point %ld: steady mean %.6g -> %.6g /s\n", p,
                  old_s.steady_mean, new_s.steady_mean);
    }
  }
  for (const auto& [p, new_windows] : new_points) {
    if (!old_points.contains(p)) {
      std::printf("ONLY-NEW   point %ld (%zu windows)\n", p, new_windows.size());
    }
  }
  std::printf("%zu point pair(s) compared, %d steady-rate regression(s) "
              "(threshold %.0f%%, series '%s')\n",
              pairs, regressions, threshold * 100.0, series.c_str());
  if (regressions > 0 || old_violations > 0 || new_violations > 0) return 1;
  return 0;
}

// --- monitor-alert stream validation (SCSQ_MONITOR_OUT) ---

/// A monitor-alert record: the obs::write_alerts_jsonl shape.
bool is_alert_record(const Value& v) {
  return v.is_object() && v.find("alert") != nullptr && v.find("monitor") != nullptr;
}

int run_alerts(const std::string& path) {
  const Value doc = parse_file(path);
  std::vector<const Value*> records;
  if (doc.is_array()) {
    for (const auto& item : doc.as_array()) {
      if (is_alert_record(item)) records.push_back(&item);
    }
  } else if (is_alert_record(doc)) {
    records.push_back(&doc);
  }
  if (records.empty()) {
    std::fprintf(stderr, "metrics_diff: %s: no monitor alerts found\n", path.c_str());
    return 2;
  }

  struct MonitorSummary {
    std::size_t alerts = 0;
    std::set<long> windows;
    double first_t_end = 0.0;
    double last_t_end = 0.0;
    std::string query;
  };
  std::map<std::string, MonitorSummary> monitors;
  int violations = 0;
  std::size_t n = 0;
  for (const Value* rec : records) {
    ++n;
    const Value* monitor = rec->find("monitor");
    const Value* window = rec->find("window");
    const Value* t_start = rec->find("t_start");
    const Value* t_end = rec->find("t_end");
    const Value* row = rec->find("row");
    const Value* value = rec->find("value");
    const Value* query = rec->find("query");
    if (monitor == nullptr || !monitor->is_string() || window == nullptr ||
        !window->is_number() || row == nullptr || !row->is_number() ||
        query == nullptr || !query->is_string() || value == nullptr) {
      std::printf("VIOLATION %s alert %zu: missing/mistyped member "
                  "(monitor/window/row/value/query)\n",
                  path.c_str(), n);
      ++violations;
      continue;
    }
    if (t_start == nullptr || !t_start->is_number() || t_end == nullptr ||
        !t_end->is_number() || !(t_start->as_number() < t_end->as_number())) {
      std::printf("VIOLATION %s alert %zu: bad window bounds (t_start must be < t_end)\n",
                  path.c_str(), n);
      ++violations;
      continue;
    }
    auto& s = monitors[monitor->as_string()];
    if (s.alerts == 0) {
      s.first_t_end = t_end->as_number();
      s.query = query->as_string();
    }
    s.last_t_end = t_end->as_number();
    ++s.alerts;
    s.windows.insert(static_cast<long>(window->as_number()));
  }
  for (const auto& [name, s] : monitors) {
    std::printf("monitor %s: %zu alert(s) over %zu window(s), t_end %.6g..%.6g s: %s\n",
                name.c_str(), s.alerts, s.windows.size(), s.first_t_end, s.last_t_end,
                s.query.c_str());
  }
  std::printf("%s: %zu alert(s), %zu monitor(s), %d violation(s)\n", path.c_str(),
              records.size(), monitors.size(), violations);
  return violations > 0 ? 1 : 0;
}

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: metrics_diff [--threshold=FRACTION] --check BASELINE.json\n"
               "       metrics_diff [--threshold=FRACTION] [--filter=SUB] [--top=N] "
               "OLD.json NEW.json\n"
               "       metrics_diff --check-profile PROFILE.json\n"
               "       metrics_diff [--threshold=FRACTION] --profile-diff OLD.json NEW.json\n"
               "       metrics_diff [--series=SUB] --timeseries SERIES.jsonl\n"
               "       metrics_diff [--threshold=FRACTION] [--series=SUB] --timeseries "
               "OLD.jsonl NEW.jsonl\n"
               "       metrics_diff --alerts ALERTS.jsonl\n"
               "\n"
               "  --threshold=F   regression tolerance, 0 <= F < 1 (default 0.2).\n"
               "                  diff/check: flag drops below old*(1-F);\n"
               "                  profile-diff: flag share growth above F (absolute).\n"
               "  --filter=SUB    diff mode: only leaf paths containing SUB\n"
               "  --top=N         diff mode: show the N largest CHANGED lines by |%%|\n"
               "                  (REGRESSION and ONLY-* lines always print)\n"
               "  --check-profile validate EXPLAIN ANALYZE attribution sums\n"
               "  --profile-diff  compare per-cause attribution shares by position\n"
               "  --timeseries    analyze a sampler time series (SCSQ_TIMESERIES_OUT):\n"
               "                  validate window invariants and report ramp time,\n"
               "                  steady-state mean, peak and p99 window rate per point.\n"
               "                  With two files, compare steady-state rates and flag\n"
               "                  drops below old*(1-threshold).\n"
               "  --series=SUB    timeseries mode: counters whose key contains SUB form\n"
               "                  the primary rate (default 'transport.link.bytes')\n"
               "  --alerts        validate and summarize a monitor-alert stream\n"
               "                  (SCSQ_MONITOR_OUT JSONL)\n"
               "  --help          print this help and exit 0\n"
               "\n"
               "exit codes:\n"
               "  0  no regressions / invariants hold\n"
               "  1  regression or attribution violation found\n"
               "  2  usage error, unreadable file, invalid JSON, or no\n"
               "     measurements/profiles found where some were required\n"
               "  3  --check: a measurement has no \"seed\" key (forgotten\n"
               "     baseline; record one or mark it \"seed\": null). Only\n"
               "     when no exit-1 regression also fired.\n");
}

[[noreturn]] void usage() {
  print_usage(stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.2;
  bool check = false;
  bool check_profile = false;
  bool profile_diff = false;
  bool timeseries = false;
  bool alerts = false;
  std::string series = "transport.link.bytes";
  std::string filter;
  long top = -1;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      char* end = nullptr;
      threshold = std::strtod(arg.c_str() + std::strlen("--threshold="), &end);
      if (end == nullptr || *end != '\0' || threshold < 0.0 || threshold >= 1.0) {
        std::fprintf(stderr, "metrics_diff: bad threshold '%s'\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(std::strlen("--filter="));
    } else if (arg == "--filter" && i + 1 < argc) {
      filter = argv[++i];
    } else if (arg.rfind("--top=", 0) == 0) {
      char* end = nullptr;
      top = std::strtol(arg.c_str() + std::strlen("--top="), &end, 10);
      if (end == nullptr || *end != '\0' || top < 0) {
        std::fprintf(stderr, "metrics_diff: bad top '%s'\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--top" && i + 1 < argc) {
      char* end = nullptr;
      top = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || top < 0) {
        std::fprintf(stderr, "metrics_diff: bad top '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg.rfind("--series=", 0) == 0) {
      series = arg.substr(std::strlen("--series="));
    } else if (arg == "--series" && i + 1 < argc) {
      series = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--check-profile") {
      check_profile = true;
    } else if (arg == "--profile-diff") {
      profile_diff = true;
    } else if (arg == "--timeseries") {
      timeseries = true;
    } else if (arg == "--alerts") {
      alerts = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      files.push_back(arg);
    }
  }
  if (check + check_profile + profile_diff + timeseries + alerts > 1) usage();
  if (alerts && files.size() == 1) return run_alerts(files[0]);
  if (check && files.size() == 1) return run_check(files[0], threshold);
  if (check_profile && files.size() == 1) return run_check_profile(files[0]);
  if (profile_diff && files.size() == 2) {
    return run_profile_diff(files[0], files[1], threshold);
  }
  if (timeseries && files.size() == 1) return run_timeseries_check(files[0], series);
  if (timeseries && files.size() == 2) {
    return run_timeseries_diff(files[0], files[1], series, threshold);
  }
  if (!check && !check_profile && !profile_diff && !timeseries && !alerts &&
      files.size() == 2) {
    return run_diff(files[0], files[1], threshold, filter, top);
  }
  usage();
}
