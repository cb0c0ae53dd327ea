// Engine edge cases: spv enumeration combinations, row-local bindings,
// filters inside spv, allocation-sequence literals, and cross-cluster
// paths not exercised by the paper's queries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/scsq.hpp"

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
  // reject them with an scsql::Error at the call's position, both in the
  // per-item operator (batch size 1) and in the fused pipeline.
  for (const std::string fn : {"odd", "even", "fft"}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
      ScsqConfig config;
      config.exec.batch_size = batch;
      Scsq scsq(config);
      try {
        scsq.run("select " + fn + "(gen_array(3, 4));");
        ADD_FAILURE() << fn << " at batch " << batch << " was accepted";
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

// SCSQ_BATCH_SIZE follows SCSQ_SAMPLE_INTERVAL's policy: a value that
// is not a positive integer is an scsql error naming the variable and
// the value, never a silent fall back to the default depth.
TEST(EngineEdge, BadBatchSizeEnvIsAnError) {
  for (const char* bad : {"0", "-1", "abc", "16x", " 16", "+16", "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    setenv("SCSQ_BATCH_SIZE", bad, 1);
    try {
      Scsq scsq;
      ADD_FAILURE() << "SCSQ_BATCH_SIZE='" << bad << "' was accepted";
    } catch (const scsql::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("SCSQ_BATCH_SIZE"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos) << what;
    }
  }
  setenv("SCSQ_BATCH_SIZE", "16", 1);
  EXPECT_EQ(Scsq().engine().options().batch_size, 16u);
  unsetenv("SCSQ_BATCH_SIZE");
  EXPECT_EQ(Scsq().engine().options().batch_size, 256u);
  // An explicit setting never reads the variable.
  setenv("SCSQ_BATCH_SIZE", "abc", 1);
  ScsqConfig config;
  config.exec.batch_size = 4;
  EXPECT_EQ(Scsq(config).engine().options().batch_size, 4u);
  unsetenv("SCSQ_BATCH_SIZE");
}

}  // namespace
}  // namespace scsq
