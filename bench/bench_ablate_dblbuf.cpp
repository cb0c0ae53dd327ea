// Ablation A2: what double buffering actually buys.
//
// The paper's MPI drivers "contain double buffers so that one buffer can
// be processed while the other one is read or written" (§2.3). This
// ablation sweeps the number of send buffers 1..4 on the Fig. 6
// point-to-point experiment: the second buffer overlaps marshal with
// transmission (the paper's double buffering); buffers beyond two add
// little because the pipeline only has two producer-side stages.
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Ablation A2", "send-buffer count 1..4 (point-to-point)");

  const std::vector<std::uint64_t> buffer_sizes = {1000, 10000, 100000, 1000000};

  std::vector<QueryPoint> points;
  for (auto buf : buffer_sizes) {
    const int arrays = arrays_for_buffer(buf);
    const std::uint64_t payload = kArrayBytes * static_cast<std::uint64_t>(arrays);
    for (int nb = 1; nb <= 4; ++nb) {
      points.push_back({p2p_query(kArrayBytes, arrays), payload,
                        scsq::hw::CostModel::lofar(), buf, nb,
                        buf * 10 + static_cast<std::uint64_t>(nb)});
    }
  }
  const auto stats = run_points(points);

  std::printf("%10s", "buffer(B)");
  for (int nb = 1; nb <= 4; ++nb) std::printf("    %d buffer(s)", nb);
  std::printf("   [Mbit/s]\n");

  std::size_t k = 0;
  for (auto buf : buffer_sizes) {
    std::printf("%10llu", static_cast<unsigned long long>(buf));
    for (int nb = 1; nb <= 4; ++nb) std::printf("  %12.1f", stats[k++].mean());
    std::printf("\n");
  }
  std::printf(
      "\nExpected: the 1 -> 2 step gives the paper's double-buffering gain;\n"
      "3 and 4 buffers add little (the marshal stage is already hidden).\n");
  return 0;
}
