// Engine edge cases: spv enumeration combinations, row-local bindings,
// filters inside spv, allocation-sequence literals, and cross-cluster
// paths not exercised by the paper's queries.
#include <gtest/gtest.h>

#include <string>

#include "core/scsq.hpp"
#include "env_lookup.hpp"

namespace scsq {
namespace {

TEST(EngineEdge, SpvCartesianEnumeration) {
  // Two 'in' enumerations: 2 x 3 = 6 stream processes, each producing
  // i*j arrays of 1000 bytes.
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from bag of sp a, sp b "
      "where b=sp(count(merge(a)), 'bg') "
      "and a=spv((select gen_array(1000, i * j) "
      "from integer i, integer j "
      "where i in iota(1,2) and j in iota(1,3)), 'be', 1);");
  ASSERT_EQ(r.results.size(), 1u);
  // Sum over i in {1,2}, j in {1,2,3} of i*j = (1+2)*(1+2+3) = 18.
  EXPECT_EQ(r.results[0].as_int(), 18);
  EXPECT_EQ(r.rp_count, 2u + 6u);  // cm + b + 6 producers
}

TEST(EngineEdge, SpvRowFilter) {
  // Filter keeps only even i: 2 of 4 subqueries spawn.
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from bag of sp a, sp b "
      "where b=sp(count(merge(a)), 'bg') "
      "and a=spv((select gen_array(1000, 5) "
      "from integer i where i in iota(1,4) and i / 2 * 2 = i), 'be', 1);");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 10);  // 2 producers x 5 arrays
}

TEST(EngineEdge, SpvRowLocalBinding) {
  // A row-local binding (m = i + 1) used by the shipped subquery.
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from bag of sp a, sp b "
      "where b=sp(count(merge(a)), 'bg') "
      "and a=spv((select gen_array(1000, m) "
      "from integer i, integer m "
      "where i in iota(1,3) and m = i + 1), 'be', 1);");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 2 + 3 + 4);
}

TEST(EngineEdge, AllocationSequenceAsBagLiteral) {
  // A literal bag allocation sequence: producers cycle over nodes 2, 3.
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from bag of sp a, sp b "
      "where b=sp(count(merge(a)), 'bg', 0) "
      "and a=spv((select gen_array(1000, 2) "
      "from integer i where i in iota(1,4)), 'bg', {2, 3, 4, 5});");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 8);
  std::set<int> nodes;
  for (const auto& c : r.connections) {
    if (c.dst == hw::Location{"bg", 0}) nodes.insert(c.src.node);
  }
  EXPECT_EQ(nodes, (std::set<int>{2, 3, 4, 5}));
}

TEST(EngineEdge, BackEndOnlyQueryNeverTouchesBlueGene) {
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(streamof(count(extract(a))), 'be') "
      "and a=sp(gen_array(100000, 6), 'be');");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 6);
  for (const auto& c : r.connections) {
    EXPECT_NE(c.src.cluster, "bg");
    EXPECT_NE(c.dst.cluster, "bg");
  }
}

TEST(EngineEdge, FrontEndProcessing) {
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(sum(extract(a)), 'fe') "
      "and a=sp(iota(1, 10), 'be');");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 55);
}

TEST(EngineEdge, SumOfReals) {
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(sum(bagavg(cwindow(extract(a), 2))), 'bg') "
      "and a=sp(iota(1, 4), 'bg');");
  ASSERT_EQ(r.results.size(), 1u);
  // Windows {1,2},{3,4} -> averages 1.5, 3.5 -> sum 5.0 (real).
  EXPECT_DOUBLE_EQ(r.results[0].as_number(), 5.0);
}

TEST(EngineEdge, ChainAcrossAllThreeClusters) {
  // be -> bg -> fe relay, counting at each hop.
  Scsq scsq;
  auto r = scsq.run(
      "select extract(c) from sp a, sp b, sp c "
      "where c=sp(streamof(count(extract(b))), 'fe') "
      "and b=sp(extract(a), 'bg') "
      "and a=sp(gen_array(200000, 8), 'be');");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 8);
}

TEST(EngineEdge, MergeOfSingleHandle) {
  // merge() accepts a single SP handle (degenerate bag).
  Scsq scsq;
  auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(count(merge(a)), 'bg') "
      "and a=sp(gen_array(1000, 3), 'bg');");
  EXPECT_EQ(r.results[0].as_int(), 3);
}

TEST(EngineEdge, EmptyEnumerationYieldsNoProducers) {
  Scsq scsq;
  // iota(1,0) is empty: spv returns an empty bag; merge of an empty bag
  // is a user error the engine must surface cleanly.
  EXPECT_THROW(scsq.run("select extract(b) from bag of sp a, sp b "
                        "where b=sp(count(merge(a)), 'bg') "
                        "and a=spv((select gen_array(1000, 1) "
                        "from integer i where i in iota(1,0)), 'be', 1);"),
               scsql::Error);
}

TEST(EngineEdge, ArrayTransformOfNonArrayIsAnError) {
  // gen_array streams synthetic arrays, not real ones. odd/even/fft must
  // reject them with an scsql::Error at the call's position.
  for (const std::string fn : {"odd", "even", "fft"}) {
    Scsq scsq;
    try {
      scsq.run("select " + fn + "(gen_array(3, 4));");
      ADD_FAILURE() << fn << " was accepted";
    } catch (const scsql::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(fn + "() expects a stream of real arrays (got syntharray)"),
                std::string::npos)
          << what;
      EXPECT_EQ(e.pos().line, 1) << what;
      EXPECT_EQ(e.pos().column, 8) << what;
    }
  }
}

TEST(EngineEdge, FunctionWithTwoParameters) {
  Scsq scsq;
  auto r = scsq.run(
      "create function pipeline(integer bytes, integer cnt) -> stream "
      "as select extract(x) from sp x "
      "where x=sp(gen_array(bytes, cnt), 'bg'); "
      "count(pipeline(1000, 9));");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 9);
}

TEST(EngineEdge, TwoCallsOfSameFunctionDoNotCollide) {
  // Inlining renames body variables per call site: two pipelines.
  Scsq scsq;
  auto r = scsq.run(
      "create function gen(integer cnt) -> stream "
      "as select extract(x) from sp x "
      "where x=sp(gen_array(1000, cnt), 'be'); "
      "count(merge({sp(count(gen(3)), 'bg'), sp(count(gen(4)), 'bg')}));");
  ASSERT_EQ(r.results.size(), 1u);
  // Two counts (3 and 4) merged and counted: 2 elements.
  EXPECT_EQ(r.results[0].as_int(), 2);
}

// Stream-buffer settings the transport cannot run with are rejected
// when the engine is built, as an scsql error naming the field and the
// value — not by an abort once a query is running.
void expect_config_error(const ScsqConfig& config, const std::string& field) {
  try {
    Scsq scsq(config);
    ADD_FAILURE() << field << " = 0 was accepted";
  } catch (const scsql::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_NE(what.find("got 0"), std::string::npos) << what;
  }
}

TEST(EngineEdge, ZeroBufferBytesIsAnError) {
  ScsqConfig config;
  config.exec.buffer_bytes = 0;
  expect_config_error(config, "buffer_bytes");
}

TEST(EngineEdge, ZeroSendBuffersIsAnError) {
  ScsqConfig config;
  config.exec.send_buffers = 0;
  expect_config_error(config, "send_buffers");
}

TEST(EngineEdge, ZeroRecvBuffersIsAnError) {
  ScsqConfig config;
  config.exec.recv_buffers = 0;
  expect_config_error(config, "recv_buffers");
}

// SCSQ_BENCH_QUICK is 0 or 1: 0 (or unset, or empty) is full mode, and
// any other value is an error, not quick mode.
TEST(EngineEdge, BenchQuickIsZeroOrOne) {
  EXPECT_FALSE(exec::from_env(env_of({})).quick);
  EXPECT_FALSE(exec::from_env(env_of({{"SCSQ_BENCH_QUICK", ""}})).quick);
  EXPECT_FALSE(exec::from_env(env_of({{"SCSQ_BENCH_QUICK", "0"}})).quick);
  EXPECT_TRUE(exec::from_env(env_of({{"SCSQ_BENCH_QUICK", "1"}})).quick);
  for (const char* bad : {"yes", "no", "2", "true"}) {
    EXPECT_THROW((void)exec::from_env(env_of({{"SCSQ_BENCH_QUICK", bad}})), scsql::Error)
        << bad;
  }
}

// The shell's settings resolve into the ExecOptions the shell passes on,
// and the paths are taken as given.
TEST(EngineEdge, SettingsResolveEveryVariable) {
  const auto s = exec::from_env(env_of({{"SCSQ_BUFFER_BYTES", "1000"},
                                        {"SCSQ_SEND_BUFFERS", "1"},
                                        {"SCSQ_MAX_RESULTS", "7"},
                                        {"SCSQ_SMART_SELECT", "1"},
                                        {"SCSQ_VERBOSE", "1"},
                                        {"SCSQ_SAMPLE_INTERVAL", "0.25"},
                                        {"SCSQ_MONITOR", "system.rates()"},
                                        {"SCSQ_TRACE", "t.json"},
                                        {"SCSQ_RECORD", "r.jsonl"}}));
  EXPECT_EQ(s.config.exec.buffer_bytes, 1000u);
  EXPECT_EQ(s.config.exec.send_buffers, 1);
  EXPECT_EQ(s.config.exec.max_results, 7u);
  EXPECT_EQ(s.config.exec.node_selection, exec::NodeSelection::kSpread);
  EXPECT_TRUE(s.verbose);
  EXPECT_DOUBLE_EQ(s.config.exec.sample_interval_s, 0.25);
  EXPECT_EQ(s.monitor, "system.rates()");
  EXPECT_EQ(s.trace_path, "t.json");
  EXPECT_EQ(s.record_path, "r.jsonl");
  // Unset: the ExecOptions defaults, nothing traced or recorded.
  const auto d = exec::from_env(env_of({}));
  EXPECT_EQ(d.config.exec.buffer_bytes, exec::ExecOptions{}.buffer_bytes);
  EXPECT_EQ(d.config.exec.sample_interval_s, 0.0);
  EXPECT_TRUE(d.monitor.empty() && d.trace_path.empty() && d.record_path.empty());
}

}  // namespace
}  // namespace scsq
