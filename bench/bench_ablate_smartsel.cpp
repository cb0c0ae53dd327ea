// Ablation A4: the paper's proposed node-selection extension.
//
// The paper closes with "we are currently experimenting with refinements
// of the node selection algorithm for the BlueGene based on the results
// of this paper". This bench quantifies that refinement: the same
// inbound query WITHOUT user allocation sequences, run under
//   naive  — the paper's current algorithm (next available node: all
//            receivers land in pset 0, sharing one I/O node), and
//   spread — the topology-aware extension (receivers spread across
//            psets, like the best-performing Query 5 placement).
#include <cstdio>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "exec/engine.hpp"

namespace {

std::string unhinted_inbound_query(int n, std::uint64_t bytes, int arrays) {
  std::ostringstream q;
  q << "select extract(c) from bag of sp a, bag of sp b, sp c, integer n"
    << " where c=sp(streamof(sum(merge(b))), 'bg')"
    << " and b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg')"
    << " and a=spv((select gen_array(" << bytes << "," << arrays << ")"
    << " from integer i where i in iota(1,n)), 'be', 1)"
    << " and n=" << n << ";";
  return q.str();
}

double run_with_selection(const std::string& query, std::uint64_t payload,
                          const scsq::hw::CostModel& cost, scsq::exec::NodeSelection sel,
                          bool last) {
  scsq::ScsqConfig cfg = scsq::bench::run_config(cost);
  cfg.exec.buffer_bytes = 64 * 1024;
  cfg.exec.node_selection = sel;
  const auto report = scsq::bench::run_query(
      cfg, query, last,
      {{"smart_select", sel == scsq::exec::NodeSelection::kSpread ? 1.0 : 0.0}});
  return static_cast<double>(payload) * 8.0 / report.elapsed_s / 1e6;
}

}  // namespace

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Ablation A4", "naive vs. topology-aware node selection (no user hints)");

  const int arrays = settings().quick ? 10 : kFullArrays;
  const int reps = settings().quick ? 2 : kRepetitions;
  const std::vector<int> ns = {1, 2, 3, 4, 6, 8};

  struct Row {
    scsq::util::Stats naive, spread;
  };
  const auto rows = sweep(ns, [&](const int& n) {
    const auto query = unhinted_inbound_query(n, kArrayBytes, arrays);
    const std::uint64_t payload =
        static_cast<std::uint64_t>(n) * kArrayBytes * static_cast<std::uint64_t>(arrays);
    Row row;
    for (int rep = 0; rep < reps; ++rep) {
      auto cost = jittered(scsq::hw::CostModel::lofar(),
                           static_cast<std::uint64_t>(n * 100 + rep));
      // The run record keeps each point's last run.
      row.naive.add(run_with_selection(query, payload, cost,
                                       scsq::exec::NodeSelection::kNaive, false));
      row.spread.add(run_with_selection(query, payload, cost,
                                        scsq::exec::NodeSelection::kSpread, rep == reps - 1));
    }
    return row;
  });

  std::printf("%4s  %16s  %16s  %9s\n", "n", "naive Mbit/s", "spread Mbit/s", "speedup");
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const auto& r = rows[i];
    std::printf("%4d  %9.1f ± %4.1f  %9.1f ± %4.1f  %8.2fx\n", ns[i], r.naive.mean(),
                r.naive.stdev(), r.spread.mean(), r.spread.stdev(),
                r.spread.mean() / r.naive.mean());
  }
  std::printf(
      "\nExpected: equal at n=1; the spread strategy approaches the Query-5\n"
      "bandwidth for larger n while naive stays on a single I/O node.\n");
  return 0;
}
