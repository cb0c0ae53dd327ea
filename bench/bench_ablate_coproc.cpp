// Ablation A1: the co-processor source-switch penalty.
//
// DESIGN.md calls out the receiver co-processor switching cost as the
// mechanism behind Fig. 8's "buffers smaller than 10K are much slower
// for stream merging than for point-to-point". This ablation re-runs the
// merge experiment with the penalty scaled by 0x / 0.5x / 1x / 2x: with
// the penalty removed, small-buffer merging should approach
// point-to-point efficiency; doubling it should push the knee right.
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Ablation A1", "source-switch penalty scaling (merge, balanced placement)");

  const std::vector<double> scales = {0.0, 0.5, 1.0, 2.0};
  const std::vector<std::uint64_t> buffer_sizes = {1000, 3000, 10000, 100000};

  std::vector<QueryPoint> points;
  for (auto buf : buffer_sizes) {
    const int arrays = arrays_for_buffer(buf);
    const std::uint64_t payload = 2 * kArrayBytes * static_cast<std::uint64_t>(arrays);
    for (double s : scales) {
      auto cost = scsq::hw::CostModel::lofar();
      cost.torus.source_switch_penalty_s *= s;
      points.push_back({merge_query(1, 4, kArrayBytes, arrays), payload, cost, buf, 2,
                        buf + static_cast<std::uint64_t>(s * 10)});
    }
  }
  const auto stats = run_points(points);

  std::printf("%10s", "buffer(B)");
  for (double s : scales) std::printf("      switch x%.1f", s);
  std::printf("   [Mbit/s]\n");

  std::size_t k = 0;
  for (auto buf : buffer_sizes) {
    std::printf("%10llu", static_cast<unsigned long long>(buf));
    for (std::size_t j = 0; j < scales.size(); ++j) std::printf("  %15.1f", stats[k++].mean());
    std::printf("\n");
  }
  std::printf(
      "\nExpected: without the penalty (x0.0) the small-buffer merge collapse\n"
      "disappears; scaling it up moves the knee toward larger buffers.\n");
  return 0;
}
