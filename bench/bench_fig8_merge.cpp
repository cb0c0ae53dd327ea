// Figure 8: intra-BlueGene stream merging — total input bandwidth at the
// consumer for sequential vs. balanced node selection (Fig. 7A/7B),
// single and double buffering, versus buffer size.
//
// Paper shapes this bench must reproduce:
//  * bandwidth depends strongly on placement: the balanced selection
//    (producers at nodes 1 and 4) beats the sequential one (nodes 1 and
//    2, where b's traffic shares node 1's co-processor and outgoing
//    link) by up to ~60%;
//  * buffers below ~10 KB are much slower for merging than for
//    point-to-point (receiver co-processor source-switch penalty);
//  * the benefit of double buffering is less significant than for
//    point-to-point.
#include <cstdio>
#include <vector>

#include "common.hpp"

namespace {

struct Placement {
  const char* name;
  int x, y;
};

}  // namespace

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Figure 8", "intra-BG stream merging, sequential vs. balanced placement");

  const std::vector<std::uint64_t> buffer_sizes = {1000,   3000,   10000,  30000,
                                                   100000, 300000, 1000000};
  const std::vector<Placement> placements = {{"sequential", 1, 2}, {"balanced", 1, 4}};

  std::vector<QueryPoint> points;
  for (auto buf : buffer_sizes) {
    const int arrays = arrays_for_buffer(buf);
    // Two producers: total payload is doubled.
    const std::uint64_t payload = 2 * kArrayBytes * static_cast<std::uint64_t>(arrays);
    for (const auto& p : placements) {
      const auto query = merge_query(p.x, p.y, kArrayBytes, arrays);
      points.push_back({query, payload, scsq::hw::CostModel::lofar(), buf, 1,
                        buf * 4 + static_cast<std::uint64_t>(p.x)});
      points.push_back({query, payload, scsq::hw::CostModel::lofar(), buf, 2,
                        buf * 4 + static_cast<std::uint64_t>(p.y) + 100});
    }
  }
  const auto stats = run_points(points);

  std::printf("%10s  %8s  %-11s  %22s  %22s\n", "buffer(B)", "arrays", "placement",
              "single-buffer Mbit/s", "double-buffer Mbit/s");
  std::size_t k = 0;
  for (auto buf : buffer_sizes) {
    const int arrays = arrays_for_buffer(buf);
    for (const auto& p : placements) {
      const auto& single = stats[k++];
      const auto& dbl = stats[k++];
      std::printf("%10llu  %8d  %-11s  %14.1f ± %5.1f  %14.1f ± %5.1f\n",
                  static_cast<unsigned long long>(buf), arrays, p.name, single.mean(),
                  single.stdev(), dbl.mean(), dbl.stdev());
    }
  }
  std::printf(
      "\nExpected shape (paper): balanced placement up to ~60%% above sequential;\n"
      "small buffers pay the co-processor switching penalty; double-buffer gain\n"
      "smaller than in Figure 6.\n");
  return 0;
}
