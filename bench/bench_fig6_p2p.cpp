// Figure 6: intra-BlueGene point-to-point streaming bandwidth vs. MPI
// stream buffer size, single vs. double buffering.
//
// Paper shapes this bench must reproduce:
//  * bandwidth collapses below ~1000-byte buffers (every stream buffer
//    occupies at least one full 1 KB torus packet);
//  * the optimum is at ~1000 bytes for both buffering modes;
//  * a gentle decline above 1 KB (cache misses + rendezvous protocol);
//  * double buffering pays off for large buffers;
//  * "bumps" where the buffer size is not a multiple of the packet size
//    (partially filled trailing packets).
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Figure 6", "intra-BG point-to-point bandwidth vs. buffer size");

  const std::vector<std::uint64_t> buffer_sizes = {
      64,    100,   200,    400,    700,    1000,   1500,    2000,    3000,
      5000,  10000, 20000,  50000,  100000, 200000, 500000,  1000000};

  // Smallest buffers mean the most simulated messages, so enqueueing them
  // first lets the FIFO thread pool pack the heavy points early.
  std::vector<QueryPoint> points;
  for (auto buf : buffer_sizes) {
    const int arrays = arrays_for_buffer(buf);
    const std::uint64_t payload = kArrayBytes * static_cast<std::uint64_t>(arrays);
    const auto query = p2p_query(kArrayBytes, arrays);
    points.push_back({query, payload, scsq::hw::CostModel::lofar(), buf,
                      /*send_buffers=*/1, /*seed=*/buf * 2 + 1});
    points.push_back({query, payload, scsq::hw::CostModel::lofar(), buf,
                      /*send_buffers=*/2, /*seed=*/buf * 2 + 2});
  }
  const auto stats = run_points(points);

  std::printf("%10s  %8s  %22s  %22s\n", "buffer(B)", "arrays",
              "single-buffer Mbit/s", "double-buffer Mbit/s");
  for (std::size_t i = 0; i < buffer_sizes.size(); ++i) {
    const auto buf = buffer_sizes[i];
    const auto& single = stats[2 * i];
    const auto& dbl = stats[2 * i + 1];
    std::printf("%10llu  %8d  %14.1f ± %5.1f  %14.1f ± %5.1f\n",
                static_cast<unsigned long long>(buf), arrays_for_buffer(buf),
                single.mean(), single.stdev(), dbl.mean(), dbl.stdev());
  }
  std::printf(
      "\nExpected shape (paper): rise to a peak at ~1000 B, decline beyond it,\n"
      "double buffering ahead of single buffering at large buffer sizes.\n");
  return 0;
}
