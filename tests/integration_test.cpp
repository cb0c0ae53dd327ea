// End-to-end tests: the paper's queries running on the full stack
// (SCSQL -> binder -> engine -> RPs -> drivers -> simulated hardware).
// Workload sizes are scaled down from the paper's 100 x 3 MB so the
// whole suite stays fast; the benches run the full-size experiments.
#include <gtest/gtest.h>

#include <sstream>

#include "core/scsq.hpp"
#include "funcs/fft.hpp"
#include "funcs/textgen.hpp"
#include "util/rng.hpp"

namespace scsq {
namespace {

using catalog::Kind;

std::string inbound_query(int query_no, int n, std::uint64_t bytes = 300'000,
                          int arrays = 10) {
  // Queries 1-6 of §3.2, parameterized. Differences:
  //   receivers:  Q1/Q2 single compute node b; Q3-Q6 spv over n nodes
  //   b placement: Q3/Q4 inPset(1); Q5/Q6 psetrr()
  //   a placement: Q1/Q3/Q5 all on be node 1; Q2/Q4/Q6 urr('be')
  std::ostringstream q;
  const char* a_alloc = (query_no % 2 == 1) ? "1" : "urr('be')";
  if (query_no <= 2) {
    q << "select extract(c) from bag of sp a, sp b, sp c, integer n"
      << " where c=sp(extract(b), 'bg')"
      << " and b=sp(count(merge(a)), 'bg')"
      << " and a=spv((select gen_array(" << bytes << "," << arrays << ")"
      << "            from integer i where i in iota(1,n)), 'be', " << a_alloc << ")"
      << " and n=" << n << ";";
  } else {
    const char* b_alloc = (query_no <= 4) ? "inPset(1)" : "psetrr()";
    q << "select extract(c) from bag of sp a, bag of sp b, sp c, integer n"
      << " where c=sp(streamof(sum(merge(b))), 'bg')"
      << " and b=spv((select streamof(count(extract(p))) from sp p where p in a),"
      << "           'bg', " << b_alloc << ")"
      << " and a=spv((select gen_array(" << bytes << "," << arrays << ")"
      << "            from integer i where i in iota(1,n)), 'be', " << a_alloc << ")"
      << " and n=" << n << ";";
  }
  return q.str();
}

// ---------------------------------------------------------------------
// Intra-BG point-to-point (§3.1, Fig. 5/6)
// ---------------------------------------------------------------------

TEST(PointToPoint, PaperQueryCountsAllArrays) {
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(300000,20),'bg',1);");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 20);
  EXPECT_EQ(r.rp_count, 3u);  // a, b, and the client manager
  EXPECT_GT(r.elapsed_s, 0.0);
  EXPECT_GE(r.stream_bytes, 20u * 300'000u);
}

TEST(PointToPoint, ExplicitNodeSelectionHonored) {
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(1000,5),'bg',1);");
  // Find the a->b connection and check its endpoints.
  bool found = false;
  for (const auto& c : r.connections) {
    if (c.src == hw::Location{"bg", 1} && c.dst == hw::Location{"bg", 0}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PointToPoint, CountInvariantAcrossBufferSizes) {
  for (std::uint64_t buf : {100ull, 1000ull, 10'000ull, 100'000ull}) {
    ScsqConfig cfg;
    cfg.exec.buffer_bytes = buf;
    Scsq scsq(cfg);
    auto r = scsq.run(
        "select extract(b) from sp a, sp b "
        "where b=sp(streamof(count(extract(a))),'bg',0) "
        "and a=sp(gen_array(50000,8),'bg',1);");
    ASSERT_EQ(r.results.size(), 1u) << "buffer " << buf;
    EXPECT_EQ(r.results[0].as_int(), 8) << "buffer " << buf;
  }
}

TEST(PointToPoint, SingleAndDoubleBufferingBothCorrect) {
  for (int buffers : {1, 2}) {
    ScsqConfig cfg;
    cfg.exec.send_buffers = buffers;
    Scsq scsq(cfg);
    auto r = scsq.run(
        "select extract(b) from sp a, sp b "
        "where b=sp(streamof(count(extract(a))),'bg',0) "
        "and a=sp(gen_array(100000,10),'bg',1);");
    EXPECT_EQ(r.results[0].as_int(), 10);
  }
}

TEST(PointToPoint, DoubleBufferingFasterForLargeBuffers) {
  auto run_mode = [](int buffers) {
    ScsqConfig cfg;
    cfg.exec.buffer_bytes = 100'000;
    cfg.exec.send_buffers = buffers;
    Scsq scsq(cfg);
    return scsq
        .run("select extract(b) from sp a, sp b "
             "where b=sp(streamof(count(extract(a))),'bg',0) "
             "and a=sp(gen_array(1000000,10),'bg',1);")
        .elapsed_s;
  };
  EXPECT_LT(run_mode(2), run_mode(1));
}

// ---------------------------------------------------------------------
// Intra-BG stream merging (§3.1, Fig. 7/8)
// ---------------------------------------------------------------------

std::string merge_query(int x, int y, std::uint64_t bytes = 300'000, int arrays = 10) {
  std::ostringstream q;
  q << "Select extract(c) from sp a, sp b, sp c"
    << " where c=sp(count(merge({a,b})), 'bg',0)"
    << " and a=sp(gen_array(" << bytes << "," << arrays << "),'bg'," << x << ")"
    << " and b=sp(gen_array(" << bytes << "," << arrays << "),'bg'," << y << ");";
  return q.str();
}

TEST(Merge, CountsArraysFromBothStreams) {
  Scsq scsq;
  auto r = scsq.run(merge_query(1, 4));
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 20);
  EXPECT_EQ(r.rp_count, 4u);
}

TEST(Merge, BalancedBeatsSequential) {
  // Fig. 8: balanced node selection (x=1, y=4) outperforms sequential
  // (x=1, y=2) because b's traffic is not routed through a's
  // co-processor / a's outgoing link.
  auto run_sel = [](int x, int y) {
    ScsqConfig cfg;
    cfg.exec.buffer_bytes = 64 * 1024;
    Scsq scsq(cfg);
    return scsq.run(merge_query(x, y, 1'000'000, 10)).elapsed_s;
  };
  const double t_sequential = run_sel(1, 2);
  const double t_balanced = run_sel(1, 4);
  EXPECT_LT(t_balanced, t_sequential);
}

TEST(Merge, SmallBuffersPaySwitchingPenalty) {
  // Fig. 8 observation 3: merging with small buffers is much slower
  // than with large ones (receiver co-processor source switching).
  auto run_buf = [](std::uint64_t buf) {
    ScsqConfig cfg;
    cfg.exec.buffer_bytes = buf;
    Scsq scsq(cfg);
    auto r = scsq.run(merge_query(1, 4, 200'000, 10));
    EXPECT_EQ(r.results[0].as_int(), 20);
    return r.elapsed_s;
  };
  EXPECT_GT(run_buf(1000), 2.0 * run_buf(100'000));
}

// ---------------------------------------------------------------------
// BG inbound streaming, Queries 1-6 (§3.2, Figs. 9-15)
// ---------------------------------------------------------------------

TEST(Inbound, AllSixQueriesCountCorrectly) {
  for (int qn = 1; qn <= 6; ++qn) {
    Scsq scsq;
    auto r = scsq.run(inbound_query(qn, 4));
    ASSERT_EQ(r.results.size(), 1u) << "query " << qn;
    EXPECT_EQ(r.results[0].as_int(), 4 * 10) << "query " << qn;
  }
}

TEST(Inbound, VaryingN) {
  for (int n : {1, 2, 5}) {
    Scsq scsq;
    auto r = scsq.run(inbound_query(5, n));
    EXPECT_EQ(r.results[0].as_int(), n * 10) << "n=" << n;
  }
}

// The TCP links' tie-break skews (hw::Machine::next_tie_skew) are part
// of the simulated timeline: the perfbench reference elapsed times were
// generated with the credit skew drawn before the delivery skew, from a
// per-machine count that runs on across statements. Both orders, and no
// skew at all, print the same rounded figure tables, so this test pins
// the exact elapsed times of two statements on one machine.
TEST(Inbound, TcpTieSkewTimelineIsPinned) {
  Scsq scsq;
  const auto first = scsq.run(inbound_query(1, 2));
  const auto second = scsq.run(inbound_query(5, 2));
  EXPECT_EQ(first.elapsed_s, 0x1.6a62ff4d3ee0ap-3) << std::hexfloat << first.elapsed_s;
  EXPECT_EQ(second.elapsed_s, 0x1.68984e4e1336ap-4) << std::hexfloat << second.elapsed_s;
}

// The MPI twin of the test above. Rounded to 0.1 Mbit/s, the golden
// tables miss a change in the order of same-time torus events (a send
// slot's release, a frame's hand-off to the inbox), so this test pins
// the exact elapsed times of a sub-KB point-to-point stream with single
// and with double buffering (Fig. 6) and of a merge whose second stream
// is forwarded through the first producer's node (Fig. 8, sequential).
TEST(MpiStreams, TimelineIsPinned) {
  const std::string p2p =
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))),'bg',0) "
      "and a=sp(gen_array(30000,5),'bg',1);";
  auto elapsed = [](int send_buffers, const std::string& query) {
    ScsqConfig cfg;
    cfg.exec.buffer_bytes = 500;
    cfg.exec.send_buffers = send_buffers;
    Scsq scsq(cfg);
    return scsq.run(query).elapsed_s;
  };
  const double single = elapsed(1, p2p);
  const double dbl = elapsed(2, p2p);
  const double merge = elapsed(2, merge_query(1, 2, 30'000, 5));
  EXPECT_EQ(single, 0x1.20a6117b9fd6ep-8) << std::hexfloat << single;
  EXPECT_EQ(dbl, 0x1.fd3b0faabf36fp-9) << std::hexfloat << dbl;
  EXPECT_EQ(merge, 0x1.06e0ca0237ba5p-6) << std::hexfloat << merge;
}

TEST(Inbound, Query1SingleBackendNodeUsed) {
  Scsq scsq;
  auto r = scsq.run(inbound_query(1, 4));
  for (const auto& c : r.connections) {
    if (c.src.cluster == "be") {
      EXPECT_EQ(c.src.node, 1);  // all on be node 1
    }
  }
}

TEST(Inbound, Query2SpreadsBackendNodes) {
  Scsq scsq;
  auto r = scsq.run(inbound_query(2, 4));
  std::set<int> be_nodes;
  for (const auto& c : r.connections) {
    if (c.src.cluster == "be") be_nodes.insert(c.src.node);
  }
  EXPECT_EQ(be_nodes.size(), 4u);  // urr('be') round-robins 4 nodes
}

TEST(Inbound, Query3ReceiversShareOnePset) {
  Scsq scsq;
  auto r = scsq.run(inbound_query(3, 4));
  std::set<int> psets;
  for (const auto& c : r.connections) {
    if (c.src.cluster == "be" && c.dst.cluster == "bg") psets.insert(c.dst.node / 8);
  }
  EXPECT_EQ(psets.size(), 1u);
  EXPECT_TRUE(psets.contains(1));  // inPset(1)
}

TEST(Inbound, Query5ReceiversSpreadAcrossPsets) {
  Scsq scsq;
  auto r = scsq.run(inbound_query(5, 4));
  std::set<int> psets;
  for (const auto& c : r.connections) {
    if (c.src.cluster == "be" && c.dst.cluster == "bg") psets.insert(c.dst.node / 8);
  }
  EXPECT_EQ(psets.size(), 4u);  // psetrr(): one receiver per pset
}

TEST(Inbound, SingleIoNodeQueriesSlowerThanMultiIo) {
  // Fig. 15 observation 1: Queries 1-4 (one I/O node) are significantly
  // slower than Query 5 (n I/O nodes).
  auto elapsed = [](int qn) {
    Scsq scsq;
    return scsq.run(inbound_query(qn, 4, 1'000'000, 10)).elapsed_s;
  };
  const double q1 = elapsed(1);
  const double q3 = elapsed(3);
  const double q5 = elapsed(5);
  EXPECT_LT(q5, q3);
  EXPECT_LT(q5, q1);
}

TEST(Inbound, OneSenderBeatsManySenders) {
  // Fig. 15 observations 3/4: Q1 faster than Q2; Q5 faster than Q6.
  auto elapsed = [](int qn) {
    Scsq scsq;
    return scsq.run(inbound_query(qn, 4, 1'000'000, 10)).elapsed_s;
  };
  EXPECT_LT(elapsed(1), elapsed(2));
  EXPECT_LT(elapsed(5), elapsed(6));
}

TEST(Inbound, TwoReceiversBeatOneOnSingleIoNode) {
  // Fig. 15 observation 2: Q3 (spread receivers) is a bit faster than
  // Q1 (single receiver) even with a single I/O node.
  auto elapsed = [](int qn, int n) {
    Scsq scsq;
    return scsq.run(inbound_query(qn, n, 1'000'000, 10)).elapsed_s;
  };
  EXPECT_LT(elapsed(3, 4), elapsed(1, 4));
}

// ---------------------------------------------------------------------
// MapReduce grep (§2.4)
// ---------------------------------------------------------------------

TEST(MapReduce, GrepMatchesOracle) {
  Scsq scsq;
  auto r = scsq.run(
      "merge(spv((select grep(\"pulsar\", filename(i)) "
      "from integer i where i in iota(1,20)), 'be', urr('be')));");
  // Oracle: direct scan of the same synthetic files.
  std::size_t expected = 0;
  for (int i = 1; i <= 20; ++i) {
    expected += funcs::grep_file("pulsar", funcs::filename_for(i)).size();
  }
  EXPECT_EQ(r.results.size(), expected);
  EXPECT_GT(expected, 0u);  // the dictionary guarantees hits
  for (const auto& line : r.results) {
    EXPECT_EQ(line.kind(), Kind::kStr);
    EXPECT_NE(line.as_str().find("pulsar"), std::string::npos);
  }
}

TEST(MapReduce, CountReduceOverGreps) {
  Scsq scsq;
  auto r = scsq.run(
      "count(merge(spv((select grep(\"beam\", filename(i)) "
      "from integer i where i in iota(1,10)), 'be', 1)));");
  std::size_t expected = 0;
  for (int i = 1; i <= 10; ++i) {
    expected += funcs::grep_file("beam", funcs::filename_for(i)).size();
  }
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(static_cast<std::size_t>(r.results[0].as_int()), expected);
}

// ---------------------------------------------------------------------
// radix2 FFT query function (§2.4)
// ---------------------------------------------------------------------

TEST(Radix2, MatchesDirectFft) {
  Scsq scsq;
  // Two signal arrays of 64 samples each.
  std::vector<std::vector<double>> arrays;
  util::Rng rng(5);
  for (int k = 0; k < 2; ++k) {
    std::vector<double> x(64);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    arrays.push_back(std::move(x));
  }
  scsq.register_stream_source("antenna1", arrays);
  auto r = scsq.run(R"(
    create function radix2(string s) -> stream
    as select radixcombine(merge({a,b}))
    from sp a, sp b, sp c
    where a=sp(fft(odd(extract(c))))
    and b=sp(fft(even(extract(c))))
    and c=sp(receiver(s));
    select radix2('antenna1');
  )");
  ASSERT_EQ(r.results.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& got = r.results[k].as_carray();
    auto expect = funcs::fft(arrays[k]);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(std::abs(got[i] - expect[i]), 0.0, 1e-9) << "array " << k << " bin " << i;
    }
  }
  // The function body spawned three SPs (a, b, c) plus the client.
  EXPECT_EQ(r.rp_count, 4u);
}

// ---------------------------------------------------------------------
// Engine-level semantics and error handling
// ---------------------------------------------------------------------

TEST(Engine, ScalarSelect) {
  Scsq scsq;
  auto r = scsq.run("select 1 + 2;");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 3);
}

TEST(Engine, FunctionReturningScalar) {
  Scsq scsq;
  auto r = scsq.run(
      "create function three() -> integer as select 3;"
      "select three();");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 3);
}

TEST(Engine, FalseFilterYieldsNoResults) {
  Scsq scsq;
  auto r = scsq.run("select n from integer n where n=4 and n > 10;");
  EXPECT_TRUE(r.results.empty());
}

TEST(Engine, UnknownClusterThrows) {
  Scsq scsq;
  EXPECT_THROW(scsq.run("select extract(a) from sp a where a=sp(gen_array(1,1),'xx');"),
               scsql::Error);
}

TEST(Engine, BusyNodeInAllocationThrows) {
  Scsq scsq;
  // Both SPs pinned to bg node 0: the second allocation must fail
  // ("in case the stream contains no available node, the query will
  // fail", §2.4).
  EXPECT_THROW(scsq.run("select extract(b) from sp a, sp b "
                        "where a=sp(gen_array(1,1),'bg',0) "
                        "and b=sp(streamof(count(extract(a))),'bg',0);"),
               scsql::Error);
}

TEST(Engine, UnknownStreamSourceThrows) {
  Scsq scsq;
  EXPECT_THROW(
      scsq.run("select extract(a) from sp a where a=sp(receiver('nope'),'bg');"),
      scsql::Error);
}

TEST(Engine, NestedSpInsideRpPlanThrows) {
  Scsq scsq;
  // extract of a variable holding a non-sp value.
  EXPECT_THROW(scsq.run("select extract(n) from integer n where n=4;"), scsql::Error);
}

TEST(Engine, SequentialQueriesOnOneEngine) {
  Scsq scsq;
  auto r1 = scsq.run("select extract(b) from sp a, sp b "
                     "where b=sp(streamof(count(extract(a))),'bg',0) "
                     "and a=sp(gen_array(1000,3),'bg',1);");
  EXPECT_EQ(r1.results[0].as_int(), 3);
  // Nodes released: the same explicit placement works again.
  auto r2 = scsq.run("select extract(b) from sp a, sp b "
                     "where b=sp(streamof(count(extract(a))),'bg',0) "
                     "and a=sp(gen_array(1000,4),'bg',1);");
  EXPECT_EQ(r2.results[0].as_int(), 4);
}

TEST(Engine, SetupTimeIncludesBgPolling) {
  Scsq scsq;
  auto r = scsq.run("select extract(b) from sp a, sp b "
                    "where b=sp(streamof(count(extract(a))),'bg',0) "
                    "and a=sp(gen_array(1000,1),'bg',1);");
  // Two BlueGene registrations, each landing on a 1 ms poll tick.
  EXPECT_GE(r.setup_s, 1e-3);
  EXPECT_LT(r.setup_s, 0.1);
}

TEST(Engine, StreamBytesAccounted) {
  Scsq scsq;
  auto r = scsq.run("select extract(b) from sp a, sp b "
                    "where b=sp(streamof(count(extract(a))),'bg',0) "
                    "and a=sp(gen_array(100000,10),'bg',1);");
  // a->b carries at least the payload; b->client is tiny.
  EXPECT_GE(r.stream_bytes, 10u * 100'000u);
  EXPECT_LT(r.stream_bytes, 2u * 10u * 100'000u);
}

}  // namespace
}  // namespace scsq
