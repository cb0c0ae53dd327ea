#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/scsq.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_bridge.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace scsq::obs {
namespace {

TEST(Counter, IncAndSetTotal) {
  Registry registry;
  auto& c = registry.counter("frames");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.set_total(42);  // idempotent re-publish of the same cumulative total
  c.set_total(100);
  EXPECT_EQ(c.value(), 100u);
}

TEST(Registry, SameNameAndLabelsSameHandle) {
  Registry registry;
  const Labels ab{{"src", "a"}, {"dst", "b"}};
  auto& first = registry.counter("link.bytes", ab);
  auto& again = registry.counter("link.bytes", ab);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(registry.size(), 1u);

  auto& other = registry.counter("link.bytes", Labels{{"src", "a"}, {"dst", "c"}});
  EXPECT_NE(&first, &other);
  EXPECT_EQ(registry.size(), 2u);

  first.inc(10);
  other.inc(5);
  EXPECT_EQ(registry.counter_total("link.bytes"), 15u);
  EXPECT_EQ(registry.counter_total("nope"), 0u);
}

TEST(Registry, GaugeSetAndAdd) {
  Registry registry;
  auto& g = registry.gauge("util", {{"node", "3"}});
  g.set(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  EXPECT_EQ(&g, &registry.gauge("util", Labels{{"node", "3"}}));
}

TEST(Histogram, BucketEdgeSemantics) {
  Registry registry;
  auto& h = registry.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (upper edges are inclusive)
  h.observe(1.001);  // bucket 1
  h.observe(100.0);  // bucket 2
  h.observe(1e9);    // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 100.0 + 1e9);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(Histogram, ExpBuckets) {
  const auto bounds = Histogram::exp_buckets(1e-6, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[1], 4e-6);
  EXPECT_DOUBLE_EQ(bounds[2], 16e-6);
  EXPECT_DOUBLE_EQ(bounds[3], 64e-6);
}

TEST(Registry, PrometheusExport) {
  Registry registry;
  registry.counter("link.bytes", {{"type", "mpi"}}).inc(7);
  registry.gauge("engine.setup_s").set(0.125);
  registry.histogram("lat", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE link_bytes counter"), std::string::npos);
  EXPECT_NE(text.find("link_bytes{type=\"mpi\"} 7"), std::string::npos);
  EXPECT_NE(text.find("engine_setup_s 0.125"), std::string::npos);
  // Cumulative le buckets + the +Inf bucket equal to _count.
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

TEST(Registry, PrometheusGroupsHelpAndTypeOncePerName) {
  Registry registry;
  registry.counter("link.bytes", {{"src", "a"}}).inc(1);
  registry.gauge("util").set(0.5);  // interleaved: a different family
  registry.counter("link.bytes", {{"src", "b"}}).inc(2);
  registry.set_help("link.bytes", "payload bytes per link");
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  // One HELP and one TYPE per family, despite two series and the
  // interleaved registration order.
  std::size_t helps = 0;
  std::size_t types = 0;
  for (std::size_t pos = 0; (pos = text.find("# HELP link_bytes", pos)) != std::string::npos;
       pos += 1) {
    ++helps;
  }
  for (std::size_t pos = 0; (pos = text.find("# TYPE link_bytes", pos)) != std::string::npos;
       pos += 1) {
    ++types;
  }
  EXPECT_EQ(helps, 1u);
  EXPECT_EQ(types, 1u);
  EXPECT_NE(text.find("# HELP link_bytes payload bytes per link"), std::string::npos);
  // Both series follow their family header contiguously.
  const auto type_at = text.find("# TYPE link_bytes counter");
  const auto a_at = text.find("link_bytes{src=\"a\"} 1");
  const auto b_at = text.find("link_bytes{src=\"b\"} 2");
  const auto util_at = text.find("# TYPE util gauge");
  ASSERT_NE(type_at, std::string::npos);
  ASSERT_NE(a_at, std::string::npos);
  ASSERT_NE(b_at, std::string::npos);
  ASSERT_NE(util_at, std::string::npos);
  EXPECT_LT(type_at, a_at);
  EXPECT_LT(a_at, b_at);
  EXPECT_TRUE(util_at < type_at || util_at > b_at);  // families not interleaved
}

TEST(Registry, PrometheusEscapesLabelValues) {
  Registry registry;
  registry.counter("c", {{"path", "a\\b"}, {"q", "say \"hi\"\nbye"}}).inc(1);
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(text.find("q=\"say \\\"hi\\\"\\nbye\""), std::string::npos);
  // The raw newline must not survive into the exposition line.
  EXPECT_EQ(text.find("say \"hi\"\n"), std::string::npos);
}

TEST(Registry, JsonExportParses) {
  Registry registry;
  registry.counter("a.b", {{"k", "v\"1\""}}).inc(3);
  registry.gauge("g").set(2.5);
  registry.histogram("h", {0.5}).observe(0.25);
  const auto doc = util::json::parse(registry.json());
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* c = counters->find("a.b{k=v\"1\"}");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_number(), 3.0);
  const auto* h = doc.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->as_number(), 1.0);
  ASSERT_TRUE(h->find("counts")->is_array());
  EXPECT_EQ(h->find("counts")->as_array().size(), 2u);  // one bound + overflow
}

TEST(SimBridge, PublishesKernelCounters) {
  sim::Simulator sim;
  sim.spawn([](sim::Simulator& s) -> sim::Task<void> {
    co_await s.delay(1.0);
    co_await s.delay(1.0);
  }(sim));
  sim.run();
  Registry registry;
  bridge_sim_perf(registry, sim.perf());
  EXPECT_EQ(registry.counter_total("sim.events_dispatched"), sim.events_dispatched());
  EXPECT_GT(registry.counter_total("sim.events_dispatched"), 0u);
  // Re-bridging the same totals is idempotent (set_total, not inc).
  bridge_sim_perf(registry, sim.perf());
  EXPECT_EQ(registry.counter_total("sim.events_dispatched"), sim.events_dispatched());
}

TEST(Observability, FullQueryPopulatesRegistry) {
  Scsq scsq;
  auto report = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(300000,10),'bg',1);");
  scsq.machine().publish_metrics();
  auto& registry = scsq.machine().metrics();

  // Transport per-link byte counters account for every streamed byte.
  EXPECT_EQ(registry.counter_total("transport.link.bytes"), report.stream_bytes);
  EXPECT_GT(registry.counter_total("transport.link.frames"), 0u);

  // The MPI link carried the stream and recorded frame latencies.
  const Labels mpi{{"type", "mpi"}, {"src", "bg:1"}, {"dst", "bg:0"}};
  auto& latency = scsq.machine().metrics().histogram(
      "transport.link.frame_latency_s", mpi, Histogram::exp_buckets(1e-6, 4.0, 12));
  EXPECT_GT(latency.count(), 0u);
  EXPECT_GT(latency.sum(), 0.0);

  // Network + kernel sections were published too.
  EXPECT_GT(registry.counter_total("torus.messages"), 0u);
  EXPECT_EQ(registry.counter_total("sim.events_dispatched"),
            scsq.sim().events_dispatched());

  // Per-RP gauges mirror the RunReport.
  for (const auto& rp : report.rps) {
    const Labels labels{{"rp", std::to_string(rp.id)}, {"loc", rp.loc.to_string()}};
    EXPECT_DOUBLE_EQ(registry.gauge("engine.rp.elements_out", labels).value(),
                     static_cast<double>(rp.elements_out));
    EXPECT_DOUBLE_EQ(registry.gauge("engine.rp.bytes_sent", labels).value(),
                     static_cast<double>(rp.bytes_sent));
  }

  // The whole snapshot is one valid JSON document.
  const auto doc = util::json::parse(registry.json());
  EXPECT_NE(doc.find("counters"), nullptr);
  EXPECT_NE(doc.find("gauges"), nullptr);
  EXPECT_NE(doc.find("histograms"), nullptr);
}

TEST(Json, ParsesScalarsAndStructures) {
  using util::json::parse;
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_DOUBLE_EQ(parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(parse("\"a\\nb\\u0041\"").as_string(), "a\nbA");
  const auto arr = parse("[1, [2], {\"k\": 3}]");
  ASSERT_TRUE(arr.is_array());
  EXPECT_EQ(arr.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(arr.as_array()[2].find("k")->as_number(), 3.0);
}

TEST(Json, RejectsMalformedInput) {
  using util::json::parse;
  using util::json::ParseError;
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{\"a\":1,}"), ParseError);
  EXPECT_THROW(parse("[1] trailing"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("\"raw\ncontrol\""), ParseError);
  EXPECT_THROW(parse("01"), ParseError);
}

TEST(Json, WriteNumberRoundTripsAtAnyStreamPrecision) {
  for (const double v : {0.0042463643814755437, 0.1, 1.0 / 3.0, 1e-300, -2.5e300,
                         1.7976931348623157e308, 4.9e-324, 3.0}) {
    std::ostringstream os;
    os.precision(3);
    util::json::write_number(os, v);
    EXPECT_EQ(util::json::parse(os.str()).as_number(), v) << os.str();
  }
  std::ostringstream os;
  util::json::write_number(os, 3.0);
  os << ',';
  util::json::write_number(os, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(os.str(), "3,\"-inf\"");
}

TEST(Json, NumericLeavesFlattensPaths) {
  const auto doc = util::json::parse(R"({"a": {"b": 1}, "c": [2, {"d": 3}], "s": "x"})");
  const auto leaves = util::json::numeric_leaves(doc);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_DOUBLE_EQ(leaves.at("a.b"), 1.0);
  EXPECT_DOUBLE_EQ(leaves.at("c[0]"), 2.0);
  EXPECT_DOUBLE_EQ(leaves.at("c[1].d"), 3.0);
}

}  // namespace
}  // namespace scsq::obs
