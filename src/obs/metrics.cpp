#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace scsq::obs {

// Key under which a metric is indexed: name plus canonical label render.
// Labels keep their registration order (instruments are consistent about
// it), so no sorting is needed for a stable key.
std::string metric_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) key += ',';
    key += labels[i].key;
    key += '=';
    key += labels[i].value;
  }
  key += '}';
  return key;
}

namespace {

using util::json::write_escaped;
using util::json::write_number;

// Prometheus metric names use underscores; label values get quoted with
// backslash escapes.
std::string prom_name(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  std::replace(out.begin(), out.end(), '-', '_');
  return out;
}

void write_prom_labels(std::ostream& os, const Labels& labels, const char* extra_key,
                       const std::string& extra_value) {
  if (labels.empty() && extra_key == nullptr) return;
  os << '{';
  bool first = true;
  for (const auto& l : labels) {
    if (!first) os << ',';
    first = false;
    os << l.key << "=\"";
    for (char c : l.value) {
      if (c == '"' || c == '\\') os << '\\';
      if (c == '\n') {
        os << "\\n";
        continue;
      }
      os << c;
    }
    os << '"';
  }
  if (extra_key != nullptr) {
    if (!first) os << ',';
    os << extra_key << "=\"" << extra_value << '"';
  }
  os << '}';
}

std::string format_bound(double b) {
  std::ostringstream os;
  os << b;
  return os.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SCSQ_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket bounds must be sorted";
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  // Values exactly on an edge land in that edge's bucket (le semantics):
  // upper_bound yields the first bound > v, but a bound == v belongs to
  // its own bucket, so step back when the previous bound equals v.
  std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  if (idx > 0 && bounds_[idx - 1] == v) idx -= 1;
  counts_[idx] += 1;
  count_ += 1;
  sum_ += v;
}

std::vector<double> Histogram::exp_buckets(double start, double factor, int count) {
  SCSQ_CHECK(start > 0 && factor > 1.0 && count >= 1) << "bad exp_buckets parameters";
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Registry::Entry& Registry::find_or_create(const std::string& name, const Labels& labels,
                                          Kind kind) {
  const std::string key = metric_key(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    SCSQ_CHECK(e.kind == kind) << "metric '" << key << "' re-registered as a different kind";
    return e;
  }
  index_.emplace(key, entries_.size());
  entries_.push_back(Entry{name, labels, kind, nullptr, nullptr, nullptr});
  return entries_.back();
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  Entry& e = find_or_create(name, labels, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  Entry& e = find_or_create(name, labels, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels,
                               std::vector<double> bounds) {
  Entry& e = find_or_create(name, labels, Kind::kHistogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

Registry::EntryView Registry::entry(std::size_t i) const {
  SCSQ_CHECK(i < entries_.size()) << "registry entry index out of range";
  const Entry& e = entries_[i];
  return EntryView{e.name, e.labels, e.counter.get(), e.gauge.get(), e.histogram.get()};
}

void Registry::set_help(const std::string& name, std::string help) {
  help_[name] = std::move(help);
}

std::uint64_t Registry::counter_total(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    if (e.kind == Kind::kCounter && e.name == name) total += e.counter->value();
  }
  return total;
}

void Registry::write_prometheus_entry(std::ostream& os, const Entry& e) const {
  const std::string name = prom_name(e.name);
  switch (e.kind) {
    case Kind::kCounter:
      os << name;
      write_prom_labels(os, e.labels, nullptr, {});
      os << ' ' << e.counter->value() << '\n';
      break;
    case Kind::kGauge:
      os << name;
      write_prom_labels(os, e.labels, nullptr, {});
      os << ' ' << e.gauge->value() << '\n';
      break;
    case Kind::kHistogram: {
      const Histogram& h = *e.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
        cumulative += h.bucket_counts()[b];
        os << name << "_bucket";
        write_prom_labels(os, e.labels, "le",
                          b < h.bounds().size() ? format_bound(h.bounds()[b]) : "+Inf");
        os << ' ' << cumulative << '\n';
      }
      os << name << "_sum";
      write_prom_labels(os, e.labels, nullptr, {});
      os << ' ' << h.sum() << '\n';
      os << name << "_count";
      write_prom_labels(os, e.labels, nullptr, {});
      os << ' ' << h.count() << '\n';
      break;
    }
  }
}

std::size_t Registry::write_prometheus(std::ostream& os, const std::string& filter) const {
  // Exposition-format contract: every series of one metric name sits in
  // a single block headed by exactly one # HELP / # TYPE pair. Group the
  // (filtered) entries by name in first-registration order, then emit
  // block by block.
  std::vector<std::size_t> selected;
  selected.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!filter.empty() &&
        metric_key(e.name, e.labels).find(filter) == std::string::npos) {
      continue;
    }
    selected.push_back(i);
  }
  std::size_t written = 0;
  std::vector<bool> emitted(entries_.size(), false);
  for (std::size_t gi = 0; gi < selected.size(); ++gi) {
    const std::size_t lead = selected[gi];
    if (emitted[lead]) continue;
    const Entry& e = entries_[lead];
    const std::string name = prom_name(e.name);
    const auto help = help_.find(e.name);
    os << "# HELP " << name << ' ' << (help != help_.end() ? help->second : e.name)
       << '\n';
    os << "# TYPE " << name << ' '
       << (e.kind == Kind::kCounter ? "counter"
                                    : e.kind == Kind::kGauge ? "gauge" : "histogram")
       << '\n';
    for (std::size_t gj = gi; gj < selected.size(); ++gj) {
      const Entry& s = entries_[selected[gj]];
      if (s.name != e.name) continue;
      emitted[selected[gj]] = true;
      write_prometheus_entry(os, s);
      ++written;
    }
  }
  return written;
}

void Registry::write_json(std::ostream& os) const {
  auto write_section = [&](const char* title, Kind kind, auto&& body) {
    os << '"' << title << "\":{";
    bool first = true;
    for (const auto& e : entries_) {
      if (e.kind != kind) continue;
      if (!first) os << ',';
      first = false;
      os << '"';
      write_escaped(os, metric_key(e.name, e.labels));
      os << "\":";
      body(e);
    }
    os << '}';
  };
  os << '{';
  write_section("counters", Kind::kCounter,
                [&](const Entry& e) { os << e.counter->value(); });
  os << ',';
  write_section("gauges", Kind::kGauge,
                [&](const Entry& e) { write_number(os, e.gauge->value()); });
  os << ',';
  write_section("histograms", Kind::kHistogram, [&](const Entry& e) {
    const Histogram& h = *e.histogram;
    os << "{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) os << ',';
      write_number(os, h.bounds()[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
      if (i) os << ',';
      os << h.bucket_counts()[i];
    }
    os << "],\"count\":" << h.count() << ",\"sum\":";
    write_number(os, h.sum());
    os << '}';
  });
  os << '}';
}

std::string Registry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace scsq::obs
