// Stress of the run record under a multi-threaded sweep: with four sweep
// threads every sweep point runs its own Registry on a worker thread and
// the sweep writes the record lines afterwards, in point order. The
// record must stay valid JSON lines — a header first, then per point one
// metrics and one profile line, then the sweep's harness line — with
// totals consistent with the returned stats: the property the ci_smoke
// validation rests on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "env_lookup.hpp"
#include "util/json.hpp"

namespace scsq::bench {
namespace {

using scsq::util::json::Value;

class ObsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One record per test process: ctest runs the tests of this fixture
    // as concurrent processes, which must not write each other's files.
    const std::string tag =
        std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
        std::to_string(::getpid());
    record_path_ = ::testing::TempDir() + "obs_stress_record_" + tag + ".jsonl";
  }

  void TearDown() override {
    configure(exec::Settings{});  // closes the record
    std::remove(record_path_.c_str());
  }

  /// Installs the settings a bench would resolve from these variables.
  void configure_with(std::map<std::string, std::string> vars) {
    vars["SCSQ_RECORD"] = record_path_;
    configure(exec::from_env(env_of(std::move(vars))));
  }

  std::vector<Value> read_record() const {
    std::ifstream in(record_path_);
    EXPECT_TRUE(in.good()) << "missing " << record_path_;
    std::vector<Value> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(util::json::parse(line));  // throws if invalid
    }
    return lines;
  }

  static std::string kind(const Value& v) { return v.find("kind")->as_string(); }

  std::string record_path_;
};

TEST_F(ObsStressTest, ParallelSweepProducesConsistentJsonl) {
  configure_with({{"SCSQ_BENCH_QUICK", "1"}, {"SCSQ_BENCH_THREADS", "4"}});
  ASSERT_EQ(settings().threads, 4u);
  // A quick Fig. 6 slice: two buffer sizes x single/double buffering,
  // small streams so four worker threads all get a point.
  const int arrays = 2;
  const std::uint64_t payload = kArrayBytes * static_cast<std::uint64_t>(arrays);
  const auto query = p2p_query(kArrayBytes, arrays);
  std::vector<QueryPoint> points;
  for (std::uint64_t buf : {std::uint64_t{1000}, std::uint64_t{16384}}) {
    points.push_back({query, payload, hw::CostModel::lofar(), buf, 1, buf + 1});
    points.push_back({query, payload, hw::CostModel::lofar(), buf, 2, buf + 2});
  }
  const auto stats = run_points(points);
  ASSERT_EQ(stats.size(), points.size());

  // Header, then (metrics, profile) per point in point order, then the
  // harness line that closes the sweep.
  const auto lines = read_record();
  ASSERT_EQ(lines.size(), 1 + 2 * points.size() + 1);
  EXPECT_EQ(kind(lines.front()), "header");
  EXPECT_EQ(lines.front().find("settings")->find("threads")->as_number(), 4.0);
  const Value& harness = lines.back();
  EXPECT_EQ(kind(harness), "harness");
  EXPECT_EQ(harness.find("points")->as_number(), static_cast<double>(points.size()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(i);
    const Value& metrics = lines[1 + 2 * i];
    ASSERT_EQ(kind(metrics), "metrics");
    EXPECT_DOUBLE_EQ(metrics.find("point")->as_number(), static_cast<double>(i));
    EXPECT_DOUBLE_EQ(metrics.find("buffer_bytes")->as_number(),
                     static_cast<double>(points[i].buffer_bytes));
    EXPECT_DOUBLE_EQ(metrics.find("send_buffers")->as_number(),
                     static_cast<double>(points[i].send_buffers));
    // The serialized mean matches the Stats returned to the caller.
    EXPECT_DOUBLE_EQ(metrics.find("mbps_mean")->as_number(), stats[i].mean());

    // Registry totals stay coherent after the thread hand-off: the
    // link-byte counters cover at least the producer's stream payload.
    const Value* counters = metrics.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    double link_bytes = 0.0;
    for (const auto& [key, value] : counters->as_object()) {
      if (key.rfind("transport.link.bytes", 0) == 0) link_bytes += value.as_number();
    }
    EXPECT_GE(link_bytes, static_cast<double>(payload));

    // The point's profile holds the attribution invariant.
    const Value& line = lines[2 + 2 * i];
    ASSERT_EQ(kind(line), "profile");
    EXPECT_DOUBLE_EQ(line.find("point")->as_number(), static_cast<double>(i));
    const Value* profile = line.find("profile");
    ASSERT_NE(profile, nullptr);
    const double elapsed = profile->find("elapsed_s")->as_number();
    const double attributed =
        profile->find("attribution")->find("attributed_total_s")->as_number();
    EXPECT_GT(elapsed, 0.0);
    EXPECT_NEAR(attributed, elapsed, elapsed * 1e-3);
    EXPECT_GE(profile->find("nodes")->as_array().size(), 2u);
    EXPECT_FALSE(profile->find("critical_path")->as_array().empty());
  }
}

TEST_F(ObsStressTest, ParallelSweepMatchesSequentialStats) {
  const int arrays = 2;
  const std::uint64_t payload = kArrayBytes * static_cast<std::uint64_t>(arrays);
  const auto query = p2p_query(kArrayBytes, arrays);
  std::vector<QueryPoint> points;
  for (int i = 0; i < 4; ++i) {
    points.push_back({query, payload, hw::CostModel::lofar(), 4096, 2,
                      static_cast<std::uint64_t>(100 + i)});
  }
  configure_with({{"SCSQ_BENCH_QUICK", "1"}, {"SCSQ_BENCH_THREADS", "4"}});
  const auto parallel = run_points(points);

  // The stats stay the same on one thread.
  configure_with({{"SCSQ_BENCH_QUICK", "1"}, {"SCSQ_BENCH_THREADS", "1"}});
  const auto sequential = run_points(points);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].mean(), sequential[i].mean()) << "point " << i;
    EXPECT_EQ(parallel[i].stdev(), sequential[i].stdev()) << "point " << i;
  }
}

TEST_F(ObsStressTest, SweepRecordsEachPointsLastRunWithItsMonitor) {
  // A sweep whose points build their engines through run_query, as
  // ablate_smartsel and linear_road do: two runs per point, the second
  // marked as the point's last. The record keeps that run (its metrics
  // line with the caller's field, its profile, windows and the alerts of
  // the SCSQ_MONITOR query every run registers), in point order.
  configure_with({{"SCSQ_BENCH_QUICK", "1"},
                  {"SCSQ_BENCH_THREADS", "2"},
                  {"SCSQ_SAMPLE_INTERVAL", "0.001"},
                  {"SCSQ_MONITOR", "above(sum(system.rates('transport.link.bytes')), 1)"}});
  const auto query = p2p_query(kArrayBytes, 2);
  const std::vector<std::uint64_t> buffers = {4096, 16384};
  const auto elapsed = sweep(buffers, [&](const std::uint64_t& buf) {
    ScsqConfig cfg = run_config(hw::CostModel::lofar());
    cfg.exec.buffer_bytes = buf;
    run_query(cfg, query, false, {{"variant", 0}});
    return run_query(cfg, query, true, {{"variant", 1}}).elapsed_s;
  });

  const auto lines = read_record();
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(kind(lines.front()), "header");
  EXPECT_EQ(kind(lines.back()), "harness");
  EXPECT_EQ(lines.back().find("points")->as_number(), 2.0);
  std::vector<std::map<std::string, int>> kinds(buffers.size());
  double last_point = 0.0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const double point = lines[i].find("point")->as_number();
    EXPECT_GE(point, last_point) << "line " << i << " out of point order";
    last_point = point;
    ++kinds.at(static_cast<std::size_t>(point))[kind(lines[i])];
    // Both lines describe the kept run, and record numbers round-trip.
    const double run_s = elapsed[static_cast<std::size_t>(point)];
    if (kind(lines[i]) == "metrics") {
      EXPECT_EQ(lines[i].find("variant")->as_number(), 1.0);
      EXPECT_EQ(lines[i].find("query")->as_string(), query);
      EXPECT_EQ(
          lines[i].find("metrics")->find("gauges")->find("engine.elapsed_s")->as_number(),
          run_s);
    } else if (kind(lines[i]) == "profile") {
      EXPECT_EQ(lines[i].find("profile")->find("elapsed_s")->as_number(), run_s);
    }
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(kinds[i]["metrics"], 1);
    EXPECT_EQ(kinds[i]["profile"], 1);
    EXPECT_GE(kinds[i]["window"], 1);
    EXPECT_GE(kinds[i]["alert"], 1);
  }
}

}  // namespace
}  // namespace scsq::bench
