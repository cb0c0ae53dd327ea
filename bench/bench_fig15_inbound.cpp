// Figure 15: BlueGene inbound streaming bandwidth for Queries 1-6 as a
// function of the number of parallel input streams n.
//
// Topologies (paper §3.2):
//   Q1: one back-end node -> one I/O node -> one compute node
//   Q2: n back-end nodes  -> one I/O node -> one compute node
//   Q3: one back-end node -> one I/O node -> n compute nodes (inPset)
//   Q4: n back-end nodes  -> one I/O node -> n compute nodes (inPset)
//   Q5: one back-end node -> n I/O nodes  -> n compute nodes (psetrr)
//   Q6: n back-end nodes  -> n I/O nodes  -> n compute nodes (psetrr)
//
// Paper shapes this bench must reproduce:
//  * Q1-Q4 (single I/O node) far below Q5/Q6 (many I/O nodes);
//  * Q3/Q4 slightly above Q1/Q2 (one->two receivers helps, then flat);
//  * Q1 above Q2 and Q5 above Q6 (one sender beats many: I/O-node
//    coordination with outside hosts);
//  * Q5 peaks around ~920 Mbit/s at n = 4 and dips at n = 5 (only four
//    I/O nodes on the partition, so a fifth stream shares one).
#include <cstdio>
#include <vector>

#include "common.hpp"

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Figure 15", "BG inbound streaming bandwidth, Queries 1-6 vs. n");

  const int max_n = 8;
  const int arrays = settings().quick ? 10 : kFullArrays;
  const std::uint64_t buffer = 64 * 1024;  // TCP path: rely on stack buffering (§3)

  std::vector<QueryPoint> points;
  for (int n = 1; n <= max_n; ++n) {
    for (int qn = 1; qn <= 6; ++qn) {
      const std::uint64_t payload =
          static_cast<std::uint64_t>(n) * kArrayBytes * static_cast<std::uint64_t>(arrays);
      points.push_back({inbound_query(qn, n, kArrayBytes, arrays), payload,
                        scsq::hw::CostModel::lofar(), buffer, /*send_buffers=*/2,
                        static_cast<std::uint64_t>(qn * 1000 + n)});
    }
  }
  const auto stats = run_points(points);

  std::printf("%4s", "n");
  for (int qn = 1; qn <= 6; ++qn) std::printf("  %16s", ("Query " + std::to_string(qn)).c_str());
  std::printf("   [Mbit/s, mean ± stdev]\n");

  std::size_t k = 0;
  for (int n = 1; n <= max_n; ++n) {
    std::printf("%4d", n);
    for (int qn = 1; qn <= 6; ++qn) {
      const auto& s = stats[k++];
      std::printf("  %9.1f ± %4.1f", s.mean(), s.stdev());
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): Q5 best, peaking ~920 Mbit/s at n=4 with a dip\n"
      "at n=5; Q6 below Q5; Q1-Q4 significantly lower; Q3/Q4 slightly above\n"
      "Q1/Q2; Q1 above Q2.\n");
  return 0;
}
