// Stress of the obs side channels under a multi-threaded sweep: with
// SCSQ_BENCH_THREADS > 1 every sweep point runs its own Registry on a
// worker thread and run_points serializes the snapshots afterwards. The
// JSONL outputs must stay valid JSON, in point order, with totals
// consistent with the returned stats — the property the ci_smoke
// validation rests on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"

namespace scsq::bench {
namespace {

using scsq::util::json::Value;

class ObsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One pair of files per test process: ctest runs the tests of this
    // fixture as concurrent processes, which must not append to each
    // other's side channels.
    const std::string tag =
        std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
        std::to_string(::getpid());
    metrics_path_ = ::testing::TempDir() + "obs_stress_metrics_" + tag + ".jsonl";
    profile_path_ = ::testing::TempDir() + "obs_stress_profile_" + tag + ".jsonl";
    ::setenv("SCSQ_BENCH_QUICK", "1", 1);
    ::setenv("SCSQ_BENCH_THREADS", "4", 1);
    ::setenv("SCSQ_METRICS_OUT", metrics_path_.c_str(), 1);
    ::setenv("SCSQ_PROFILE_OUT", profile_path_.c_str(), 1);
  }

  void TearDown() override {
    ::unsetenv("SCSQ_BENCH_QUICK");
    ::unsetenv("SCSQ_BENCH_THREADS");
    ::unsetenv("SCSQ_METRICS_OUT");
    ::unsetenv("SCSQ_PROFILE_OUT");
    std::remove(metrics_path_.c_str());
    std::remove(profile_path_.c_str());
  }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }

  std::string metrics_path_;
  std::string profile_path_;
};

TEST_F(ObsStressTest, ParallelSweepProducesConsistentJsonl) {
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
  ASSERT_EQ(bench_threads(), 4u);  // the env override is live
  const auto stats = run_points(points);
  ASSERT_EQ(stats.size(), points.size());

  // --- SCSQ_METRICS_OUT: one valid record per point, in point order ---
  const auto metric_lines = read_lines(metrics_path_);
  ASSERT_EQ(metric_lines.size(), points.size());
  for (std::size_t i = 0; i < metric_lines.size(); ++i) {
    const Value doc = util::json::parse(metric_lines[i]);  // throws if invalid
    ASSERT_TRUE(doc.is_object());
    EXPECT_DOUBLE_EQ(doc.find("point")->as_number(), static_cast<double>(i));
    EXPECT_DOUBLE_EQ(doc.find("buffer_bytes")->as_number(),
                     static_cast<double>(points[i].buffer_bytes));
    EXPECT_DOUBLE_EQ(doc.find("send_buffers")->as_number(),
                     static_cast<double>(points[i].send_buffers));
    // The serialized mean matches the Stats returned to the caller.
    EXPECT_DOUBLE_EQ(doc.find("mbps_mean")->as_number(), stats[i].mean());

    // Registry totals stay coherent after the thread hand-off: the
    // link-byte counters cover at least the producer's stream payload.
    const Value* counters = doc.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    double link_bytes = 0.0;
    for (const auto& [key, value] : counters->as_object()) {
      if (key.rfind("transport.link.bytes", 0) == 0) link_bytes += value.as_number();
    }
    EXPECT_GE(link_bytes, static_cast<double>(payload));
  }

  // --- SCSQ_PROFILE_OUT: per-point profiles holding the invariant ---
  const auto profile_lines = read_lines(profile_path_);
  ASSERT_EQ(profile_lines.size(), points.size());
  for (std::size_t i = 0; i < profile_lines.size(); ++i) {
    const Value doc = util::json::parse(profile_lines[i]);
    EXPECT_DOUBLE_EQ(doc.find("point")->as_number(), static_cast<double>(i));
    const Value* profile = doc.find("profile");
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
  const auto parallel = run_points(points);

  ::setenv("SCSQ_BENCH_THREADS", "1", 1);
  const auto sequential = run_points(points);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].mean(), sequential[i].mean()) << "point " << i;
    EXPECT_EQ(parallel[i].stdev(), sequential[i].stdev()) << "point " << i;
  }
}

}  // namespace
}  // namespace scsq::bench
