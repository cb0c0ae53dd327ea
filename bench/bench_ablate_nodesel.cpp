// Ablation A3: node-selection strategies for inbound streaming.
//
// The paper concludes that its naive node-selection algorithm should be
// extended with the Fig. 15 findings: prefer many I/O nodes (psetrr
// spreading), co-locate back-end producers, and add a second receiving
// compute node when I/O nodes are scarce. This ablation compares, at
// several n, the bandwidth of:
//   naive     — no allocation sequence (next available BG node: all
//               receivers land in pset 0, one I/O node)
//   inpset    — receivers pinned to one pset (Query 3 topology)
//   psetrr    — receivers spread round-robin over psets (Query 5)
//   psetrr+urr— spread receivers AND spread back-end senders (Query 6)
#include <cstdio>
#include <sstream>
#include <vector>

#include "common.hpp"

namespace {

std::string nodesel_query(const char* b_alloc, const char* a_alloc, int n,
                          std::uint64_t bytes, int arrays) {
  std::ostringstream q;
  q << "select extract(c) from bag of sp a, bag of sp b, sp c, integer n"
    << " where c=sp(streamof(sum(merge(b))), 'bg')"
    << " and b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg'"
    << (b_alloc[0] ? std::string(", ") + b_alloc : "") << ")"
    << " and a=spv((select gen_array(" << bytes << "," << arrays << ")"
    << " from integer i where i in iota(1,n)), 'be', " << a_alloc << ")"
    << " and n=" << n << ";";
  return q.str();
}

}  // namespace

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Ablation A3", "node-selection strategies for inbound streaming");

  struct Strategy {
    const char* name;
    const char* b_alloc;
    const char* a_alloc;
  };
  const std::vector<Strategy> strategies = {
      {"naive", "", "1"},
      {"inpset", "inPset(1)", "1"},
      {"psetrr", "psetrr()", "1"},
      {"psetrr+urr", "psetrr()", "urr('be')"},
  };
  const std::vector<int> ns = {1, 2, 4, 6, 8};
  const int arrays = settings().quick ? 10 : kFullArrays;

  std::vector<QueryPoint> points;
  for (int n : ns) {
    const std::uint64_t payload =
        static_cast<std::uint64_t>(n) * kArrayBytes * static_cast<std::uint64_t>(arrays);
    for (const auto& s : strategies) {
      points.push_back({nodesel_query(s.b_alloc, s.a_alloc, n, kArrayBytes, arrays),
                        payload, scsq::hw::CostModel::lofar(), 64 * 1024, 2,
                        static_cast<std::uint64_t>(n * 131 + (s.b_alloc[0] ? 1 : 0) * 17 +
                                                   (s.a_alloc[0] == 'u' ? 1 : 0) * 29)});
    }
  }
  const auto stats = run_points(points);

  std::printf("%4s", "n");
  for (const auto& s : strategies) std::printf("  %14s", s.name);
  std::printf("   [Mbit/s]\n");

  std::size_t k = 0;
  for (int n : ns) {
    std::printf("%4d", n);
    for (std::size_t j = 0; j < strategies.size(); ++j) std::printf("  %14.1f", stats[k++].mean());
    std::printf("\n");
  }
  std::printf(
      "\nExpected: psetrr dominates once n > 1 (it recruits more I/O nodes);\n"
      "spreading senders too (psetrr+urr) loses bandwidth to I/O-node\n"
      "coordination — co-locating back-end producers wins, as the paper\n"
      "concludes for the future node-selection algorithm.\n");
  return 0;
}
