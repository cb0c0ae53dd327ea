// metrics_diff — compare metrics/bench JSON documents and run records,
// and flag performance regressions beyond a threshold.
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
//     (obs registry exports, run records, bench baselines all work) and
//     matching paths are compared. Leaves present in only one file are
//     listed; a drop beyond the threshold at any shared path fails
//     (exit 1). Files holding JSON-lines (one document per line, e.g. a
//     run record) are wrapped into an array first. --filter keeps only
//     leaf paths containing SUB; --top caps the CHANGED lines at the N
//     largest relative changes (REGRESSION and ONLY-* lines always
//     print).
//
//   metrics_diff [--series=SUB] --record RECORD.jsonl
//     Validates a run record (SCSQ_RECORD, exec/record.hpp): every line
//     is JSON and the first is the header; every profile's attribution
//     sums to its elapsed time within 0.1%; per sweep point or shell
//     statement, windows have t_start < t_end, cover time contiguously
//     and carry finite, non-negative counter deltas and rates; every
//     alert is complete. Exit 1 on a violation. It reports, per point,
//     the steady state of the primary rate (the summed rates of the
//     counters whose key contains --series): ramp time to the first
//     window within ±25% of the median nonzero rate, steady mean, peak
//     and p99 window rate; per monitor, its alerts, windows and fired
//     time range; and the lines of each kind.
//
//   metrics_diff [--threshold=0.2] [--series=SUB] --record OLD NEW
//     Validates both records and fails (exit 1) when a profile's cause
//     grew its share of elapsed time by more than the threshold
//     (absolute: 0.2 = 20 points; profiles paired by position) or a
//     point's steady mean rate fell below old*(1-threshold).
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
#include <optional>
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
/// frame recycling counters), sim.queue.* (event-queue internals, such
/// as cancelled timer nodes consumed) and sim.coro.* (process-wide
/// coroutine-frame recycling, which accumulates across every run in the
/// process). These describe HOW the host drove a run, not WHAT the
/// simulation produced, and legitimately differ between builds even
/// though every simulated result is byte-identical — so neither the
/// --check floor nor the diff regression gate applies to them.
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

// --- run records (SCSQ_RECORD) ---

/// Share of elapsed time per cause, from a profile's attribution.slices.
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

/// One sampler window reduced to the primary series: the sum of the
/// rates of every counter whose key contains the --series substring.
struct SeriesWindow {
  double t_start = 0.0;
  double t_end = 0.0;
  double rate = 0.0;
};

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

/// Where a record line belongs: (sweep, point) for a bench sweep point,
/// (-1, statement) for a shell statement.
using PointKey = std::pair<long, long>;

std::string point_name(const PointKey& key) {
  return key.first < 0 ? "statement " + std::to_string(key.second)
                       : "sweep " + std::to_string(key.first) + " point " +
                             std::to_string(key.second);
}

struct MonitorSummary {
  std::size_t alerts = 0;
  std::set<std::pair<PointKey, long>> windows;  // (point, window index)
  double min_t_end = 0.0;  // each point's windows restart at its own time
  double max_t_end = 0.0;
  std::string query;
};

/// A validated run record: its lines, the profiles in file order, the
/// windows of each point and the alerts of each monitor.
struct Record {
  Record() = default;
  Record(Record&&) = default;  // moving keeps the lines where profiles point
  Record(const Record&) = delete;

  Value lines = Value::make_null();  // an array, one element per line
  std::vector<const Value*> profiles;
  std::map<PointKey, std::vector<SeriesWindow>> windows;
  std::map<std::string, MonitorSummary> monitors;
  std::map<std::string, std::size_t> kinds;  // lines per kind
  int violations = 0;
};

bool is_number(const Value* v) { return v != nullptr && v->is_number(); }

/// Reads and validates a record; prints each violation. Exits 2 when the
/// file is not a record (unreadable, not JSON lines, no header first).
Record load_record(const std::string& path, const std::string& series) {
  Record rec;
  rec.lines = parse_file(path);
  if (!rec.lines.is_array()) rec.lines = Value::make_array({rec.lines});  // header only
  const auto& lines = rec.lines.as_array();
  const auto kind_of = [](const Value& v) {
    const Value* kind = v.find("kind");
    return kind != nullptr && kind->is_string() ? kind->as_string() : std::string();
  };
  if (lines.empty() || kind_of(lines.front()) != "header") {
    std::fprintf(stderr, "metrics_diff: %s: not a run record (no header line first)\n",
                 path.c_str());
    std::exit(2);
  }
  const auto violation = [&](std::size_t n, const std::string& what) {
    std::printf("VIOLATION %s line %zu: %s\n", path.c_str(), n, what.c_str());
    ++rec.violations;
  };
  long sweep = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Value& v = lines[i];
    const std::size_t n = i + 1;
    const std::string kind = kind_of(v);
    ++rec.kinds[kind];
    std::optional<PointKey> key;
    if (const Value* point = v.find("point"); is_number(point)) {
      key = PointKey{sweep, static_cast<long>(point->as_number())};
    } else if (const Value* st = v.find("statement"); is_number(st)) {
      key = PointKey{-1, static_cast<long>(st->as_number())};
    }
    if (kind == "header" || kind == "metrics" || kind == "error") {
      if (kind == "header" && i > 0) violation(n, "a second header");
    } else if (kind == "harness") {
      ++sweep;
    } else if (kind == "profile") {
      const Value* profile = v.find("profile");
      const Value* attribution = profile != nullptr ? profile->find("attribution") : nullptr;
      if (profile == nullptr || !is_number(profile->find("elapsed_s")) ||
          attribution == nullptr || !is_number(attribution->find("attributed_total_s"))) {
        violation(n, "profile without elapsed_s or attribution.attributed_total_s");
        continue;
      }
      constexpr double kTolerance = 1e-3;  // the ±0.1% attribution invariant
      const double elapsed = profile->find("elapsed_s")->as_number();
      const double attributed = attribution->find("attributed_total_s")->as_number();
      const double scale = std::max(std::fabs(elapsed), 1e-12);
      if (std::fabs(attributed - elapsed) / scale > kTolerance) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "attributed %.9g s != elapsed %.9g s (%.3f%% off)",
                      attributed, elapsed, std::fabs(attributed - elapsed) / scale * 100.0);
        violation(n, buf);
      }
      rec.profiles.push_back(profile);
    } else if (kind == "window") {
      const Value* counters = v.find("counters");
      if (!key || !is_number(v.find("t_start")) || !is_number(v.find("t_end")) ||
          counters == nullptr || !counters->is_object()) {
        violation(n, "window without point, t_start, t_end or counters");
        continue;
      }
      SeriesWindow w;
      w.t_start = v.find("t_start")->as_number();
      w.t_end = v.find("t_end")->as_number();
      if (!(w.t_end > w.t_start)) violation(n, "window t_end <= t_start");
      for (const auto& [name, counter] : counters->as_object()) {
        const Value* delta = counter.find("delta");
        const Value* rate = counter.find("rate");
        if (!is_number(delta) || delta->as_number() < 0.0 || !is_number(rate) ||
            !std::isfinite(rate->as_number()) || rate->as_number() < 0.0) {
          violation(n, "counter " + name + " has a bad delta or rate");
          continue;
        }
        if (name.find(series) != std::string::npos) w.rate += rate->as_number();
      }
      auto& windows = rec.windows[*key];
      if (!windows.empty()) {
        const double prev_end = windows.back().t_end;
        if (std::fabs(w.t_start - prev_end) > 1e-9 * std::max(1.0, std::fabs(prev_end))) {
          char buf[160];
          std::snprintf(buf, sizeof(buf), "%s: t_start %.17g does not continue t_end %.17g",
                        point_name(*key).c_str(), w.t_start, prev_end);
          violation(n, buf);
        }
      }
      windows.push_back(w);
    } else if (kind == "alert") {
      const Value* monitor = v.find("monitor");
      const Value* query = v.find("query");
      const Value* t_start = v.find("t_start");
      const Value* t_end = v.find("t_end");
      if (monitor == nullptr || !monitor->is_string() || query == nullptr ||
          !query->is_string() || !is_number(v.find("window")) || !is_number(v.find("row")) ||
          v.find("value") == nullptr) {
        violation(n, "alert without monitor, query, window, row or value");
        continue;
      }
      if (!is_number(t_start) || !is_number(t_end) ||
          !(t_start->as_number() < t_end->as_number())) {
        violation(n, "alert window bounds need t_start < t_end");
        continue;
      }
      auto& m = rec.monitors[monitor->as_string()];
      const double end = t_end->as_number();
      if (m.alerts++ == 0) {
        m.min_t_end = m.max_t_end = end;
        m.query = query->as_string();
      }
      m.min_t_end = std::min(m.min_t_end, end);
      m.max_t_end = std::max(m.max_t_end, end);
      m.windows.emplace(key.value_or(PointKey{-1, -1}),
                        static_cast<long>(v.find("window")->as_number()));
    } else {
      violation(n, "unknown kind '" + kind + "'");
    }
  }
  return rec;
}

std::size_t count(const Record& rec, const char* kind) {
  const auto it = rec.kinds.find(kind);
  return it == rec.kinds.end() ? 0 : it->second;
}

int run_record(const std::string& path, const std::string& series) {
  const Record rec = load_record(path, series);
  for (const auto& [key, windows] : rec.windows) {
    const SteadyState s = analyze_point(windows);
    std::printf("%s: %zu window(s), %zu steady, ramp %.6g s, steady mean %.6g /s, "
                "peak %.6g /s, p99 window %.6g /s [series '%s']\n",
                point_name(key).c_str(), s.windows, s.steady_windows, s.ramp_s, s.steady_mean,
                s.peak, s.p99, series.c_str());
  }
  for (const auto& [name, m] : rec.monitors) {
    std::printf("monitor %s: %zu alert(s) over %zu window(s), t_end %.6g..%.6g s: %s\n",
                name.c_str(), m.alerts, m.windows.size(), m.min_t_end, m.max_t_end,
                m.query.c_str());
  }
  std::printf("%s: %zu metrics, %zu profile(s), %zu window(s), %zu alert(s), %zu error(s), "
              "%zu sweep(s); %d violation(s)\n",
              path.c_str(), count(rec, "metrics"), count(rec, "profile"),
              count(rec, "window"), count(rec, "alert"), count(rec, "error"),
              count(rec, "harness"), rec.violations);
  return rec.violations > 0 ? 1 : 0;
}

int run_record_diff(const std::string& old_path, const std::string& new_path,
                    const std::string& series, double threshold) {
  const Record old_rec = load_record(old_path, series);
  const Record new_rec = load_record(new_path, series);
  int regressions = 0;
  const std::size_t pairs = std::min(old_rec.profiles.size(), new_rec.profiles.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto old_shares = shares_of(*old_rec.profiles[i]);
    for (const auto& [cause, new_share] : shares_of(*new_rec.profiles[i])) {
      // A cause the old run never attributed is a new cost category, not
      // a share regression.
      const auto it = old_shares.find(cause);
      if (it != old_shares.end() && new_share - it->second > threshold) {
        std::printf("REGRESSION profile[%zu] %s: share %.1f%% -> %.1f%%\n", i, cause.c_str(),
                    it->second * 100.0, new_share * 100.0);
        ++regressions;
      }
    }
  }
  std::size_t point_pairs = 0;
  for (const auto& [key, old_windows] : old_rec.windows) {
    const auto it = new_rec.windows.find(key);
    if (it == new_rec.windows.end()) continue;
    ++point_pairs;
    const double old_mean = analyze_point(old_windows).steady_mean;
    const double new_mean = analyze_point(it->second).steady_mean;
    if (old_mean > 0.0 && new_mean < old_mean * (1.0 - threshold)) {
      std::printf("REGRESSION %s: steady mean %.6g -> %.6g /s (%+.1f%%)\n",
                  point_name(key).c_str(), old_mean, new_mean,
                  (new_mean - old_mean) / old_mean * 100.0);
      ++regressions;
    }
  }
  std::printf("%zu of %zu/%zu profile(s) and %zu point(s) with windows compared, "
              "%d regression(s) (threshold %.0f%%, series '%s')\n",
              pairs, old_rec.profiles.size(), new_rec.profiles.size(), point_pairs,
              regressions, threshold * 100.0, series.c_str());
  return regressions > 0 || old_rec.violations > 0 || new_rec.violations > 0 ? 1 : 0;
}

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: metrics_diff [--threshold=FRACTION] --check BASELINE.json\n"
               "       metrics_diff [--threshold=FRACTION] [--filter=SUB] [--top=N] "
               "OLD.json NEW.json\n"
               "       metrics_diff [--series=SUB] --record RECORD.jsonl\n"
               "       metrics_diff [--threshold=FRACTION] [--series=SUB] --record "
               "OLD.jsonl NEW.jsonl\n"
               "\n"
               "  --threshold=F   regression tolerance, 0 <= F < 1 (default 0.2).\n"
               "                  diff/check: flag drops below old*(1-F);\n"
               "                  record: flag a cause's share growing by more than F\n"
               "                  (absolute) and steady rates below old*(1-F).\n"
               "  --filter=SUB    diff mode: only leaf paths containing SUB\n"
               "  --top=N         diff mode: show the N largest CHANGED lines by |%%|\n"
               "                  (REGRESSION and ONLY-* lines always print)\n"
               "  --record        validate a run record (SCSQ_RECORD): profile\n"
               "                  attribution sums, window and alert invariants; report\n"
               "                  steady-state rates per point and alerts per monitor.\n"
               "                  With two records, compare them.\n"
               "  --series=SUB    record mode: counters whose key contains SUB form\n"
               "                  the primary rate (default 'transport.link.bytes')\n"
               "  --help          print this help and exit 0\n"
               "\n"
               "exit codes:\n"
               "  0  no regressions / invariants hold\n"
               "  1  regression or invariant violation found\n"
               "  2  usage error, unreadable file, invalid JSON, or not a record\n"
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
  bool record = false;
  std::string series = "transport.link.bytes";
  std::string filter;
  long top = -1;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // "--filter SUB", "--top N" and "--series SUB" are read as "--filter=SUB" etc.
    if ((arg == "--filter" || arg == "--top" || arg == "--series") && i + 1 < argc) {
      arg += '=' + std::string(argv[++i]);
    }
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
    } else if (arg.rfind("--top=", 0) == 0) {
      char* end = nullptr;
      top = std::strtol(arg.c_str() + std::strlen("--top="), &end, 10);
      if (end == nullptr || *end != '\0' || top < 0) {
        std::fprintf(stderr, "metrics_diff: bad top '%s'\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--series=", 0) == 0) {
      series = arg.substr(std::strlen("--series="));
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--record") {
      record = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      files.push_back(arg);
    }
  }
  if (check && record) usage();
  if (check && files.size() == 1) return run_check(files[0], threshold);
  if (record && files.size() == 1) return run_record(files[0], series);
  if (record && files.size() == 2) return run_record_diff(files[0], files[1], series, threshold);
  if (!check && !record && files.size() == 2) {
    return run_diff(files[0], files[1], threshold, filter, top);
  }
  usage();
}
