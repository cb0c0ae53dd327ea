// Extension bench: Linear-Road-lite throughput on the simulated LOFAR
// environment ("further measurements could be made using benchmarks such
// as The Linear Road Benchmark", paper §5).
//
// Measures position-report throughput (reports/s of simulated time) for
// the toll pipeline at increasing vehicle counts, with the analysis
// placed on the BlueGene vs. on the back-end cluster — the placement
// trade-off the paper's node-selection work is about: crossing the
// I/O-node path costs bandwidth, but the BlueGene offloads the back-end.
#include <cstdio>
#include <sstream>
#include <vector>

#include "common.hpp"

namespace {

double run_toll_pipeline(int vehicles, int ticks, const char* analysis_cluster,
                         const scsq::hw::CostModel& cost, bool last) {
  std::ostringstream q;
  q << "select extract(b) from sp a, sp b"
    << " where b=sp(lr_tolls(extract(a), 5), '" << analysis_cluster << "')"
    << " and a=sp(lr_source(" << vehicles << "," << ticks << ",1), 'be');";
  const auto report = scsq::bench::run_query(scsq::bench::run_config(cost), q.str(), last);
  return static_cast<double>(vehicles) * ticks / report.elapsed_s;
}

}  // namespace

int main() {
  using namespace scsq::bench;
  configure_from_env();
  print_banner("Extension", "Linear-Road-lite toll pipeline throughput");

  const int ticks = settings().quick ? 30 : 120;
  const int reps = settings().quick ? 2 : kRepetitions;
  const std::vector<int> vehicle_counts = {50, 100, 200, 400, 800};

  struct Row {
    scsq::util::Stats bg, be;
  };
  const auto rows = sweep(vehicle_counts, [&](const int& vehicles) {
    Row row;
    for (int rep = 0; rep < reps; ++rep) {
      auto cost = jittered(scsq::hw::CostModel::lofar(),
                           static_cast<std::uint64_t>(vehicles * 10 + rep));
      // The run record keeps each point's last run.
      row.bg.add(run_toll_pipeline(vehicles, ticks, "bg", cost, false));
      row.be.add(run_toll_pipeline(vehicles, ticks, "be", cost, rep == reps - 1));
    }
    return row;
  });

  std::printf("%10s  %20s  %20s   [reports/s]\n", "vehicles", "analysis on bg",
              "analysis on be");
  for (std::size_t i = 0; i < vehicle_counts.size(); ++i) {
    const auto& r = rows[i];
    std::printf("%10d  %13.0f ± %4.0f  %13.0f ± %4.0f\n", vehicle_counts[i], r.bg.mean(),
                r.bg.stdev(), r.be.mean(), r.be.stdev());
  }
  std::printf(
      "\nExpected: back-end placement avoids the I/O-node inbound path and wins\n"
      "on raw throughput; BlueGene placement is the price of offloading.\n");
  return 0;
}
