#include <gtest/gtest.h>

#include "core/scsq.hpp"
#include "exec/coordinator.hpp"
#include "exec/eval.hpp"
#include "exec/substitute.hpp"
#include "hw/machine.hpp"
#include "scsql/parser.hpp"

namespace scsq::exec {
namespace {

using catalog::Kind;
using catalog::Object;

Object ev(const std::string& text, const Env& env = {}, hw::Machine* m = nullptr) {
  return eval_const(scsql::parse_expression(text), env, m);
}

// ---------------------------------------------------------------------
// eval_const
// ---------------------------------------------------------------------

TEST(EvalConst, Literals) {
  EXPECT_EQ(ev("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(ev("2.5").as_real(), 2.5);
  EXPECT_EQ(ev("'bg'").as_str(), "bg");
}

TEST(EvalConst, Arithmetic) {
  EXPECT_EQ(ev("1 + 2 * 3").as_int(), 7);
  EXPECT_EQ(ev("10 - 4").as_int(), 6);
  EXPECT_EQ(ev("10 / 2").as_int(), 5);
  EXPECT_DOUBLE_EQ(ev("7 / 2").as_real(), 3.5);
  EXPECT_EQ(ev("-3").as_int(), -3);
}

TEST(EvalConst, DivisionByZeroThrows) {
  EXPECT_THROW(ev("1 / 0"), scsql::Error);
}

TEST(EvalConst, Comparisons) {
  EXPECT_TRUE(ev("1 < 2").as_bool());
  EXPECT_FALSE(ev("2 < 1").as_bool());
  EXPECT_TRUE(ev("2 <= 2").as_bool());
  EXPECT_TRUE(ev("3 = 3").as_bool());
  EXPECT_TRUE(ev("3 != 4").as_bool());
  EXPECT_TRUE(ev("'a' = 'a'").as_bool());
}

TEST(EvalConst, Variables) {
  Env env{{"n", Object{4}}};
  EXPECT_EQ(ev("n + 1", env).as_int(), 5);
  EXPECT_THROW(ev("m", env), scsql::Error);
}

TEST(EvalConst, Iota) {
  auto bag = ev("iota(1, 4)").as_bag();
  ASSERT_EQ(bag.size(), 4u);
  EXPECT_EQ(bag[0].as_int(), 1);
  EXPECT_EQ(bag[3].as_int(), 4);
}

TEST(EvalConst, IotaEmptyWhenReversed) {
  EXPECT_TRUE(ev("iota(5, 4)").as_bag().empty());
}

TEST(EvalConst, IotaWithVariable) {
  Env env{{"n", Object{3}}};
  EXPECT_EQ(ev("iota(1, n)", env).as_bag().size(), 3u);
}

TEST(EvalConst, Filename) {
  EXPECT_EQ(ev("filename(12)").as_str(), "lofar_obs_12.log");
}

TEST(EvalConst, BagCtor) {
  Env env{{"a", Object{catalog::SpHandle{1, "bg"}}}, {"b", Object{catalog::SpHandle{2, "bg"}}}};
  auto bag = ev("{a, b}", env).as_bag();
  ASSERT_EQ(bag.size(), 2u);
  EXPECT_EQ(bag[0].as_sp().id, 1u);
  EXPECT_EQ(bag[1].as_sp().id, 2u);
}

TEST(EvalConst, SpInConstContextThrows) {
  EXPECT_THROW(ev("sp(gen_array(1,1), 'bg')"), scsql::Error);
}

TEST(EvalConst, UnknownFunctionThrows) {
  EXPECT_THROW(ev("frobnicate(1)"), scsql::Error);
}

// ---------------------------------------------------------------------
// Allocation functions against a real machine
// ---------------------------------------------------------------------

class AllocFns : public ::testing::Test {
 protected:
  sim::Simulator sim;
  hw::Machine machine{sim};
};

TEST_F(AllocFns, UrrListsClusterNodes) {
  auto bag = ev("urr('be')", {}, &machine).as_bag();
  ASSERT_EQ(bag.size(), 4u);  // 4 back-end nodes
  EXPECT_EQ(bag[0].as_int(), 0);
  EXPECT_EQ(bag[3].as_int(), 3);
}

TEST_F(AllocFns, UrrUnknownClusterThrows) {
  EXPECT_THROW(ev("urr('nope')", {}, &machine), scsql::Error);
}

TEST_F(AllocFns, UrrWithoutMachineThrows) {
  EXPECT_THROW(ev("urr('be')"), scsql::Error);
}

TEST_F(AllocFns, InPsetListsPsetNodes) {
  auto bag = ev("inPset(1)", {}, &machine).as_bag();
  ASSERT_EQ(bag.size(), 8u);
  EXPECT_EQ(bag[0].as_int(), 8);
  EXPECT_EQ(bag[7].as_int(), 15);
}

TEST_F(AllocFns, InPsetOutOfRangeThrows) {
  EXPECT_THROW(ev("inPset(99)", {}, &machine), scsql::Error);
}

TEST_F(AllocFns, PsetrrAlternatesPsets) {
  auto bag = ev("psetrr()", {}, &machine).as_bag();
  ASSERT_GE(bag.size(), 4u);
  EXPECT_EQ(bag[0].as_int() / 8, 0);
  EXPECT_EQ(bag[1].as_int() / 8, 1);
  EXPECT_EQ(bag[2].as_int() / 8, 2);
  EXPECT_EQ(bag[3].as_int() / 8, 3);
}

// ---------------------------------------------------------------------
// Substitution
// ---------------------------------------------------------------------

TEST(Substitute, RenamesVars) {
  auto e = scsql::parse_expression("count(extract(a))");
  auto out = substitute_vars(e, {{"a", "__f_a"}});
  EXPECT_EQ(out->to_string(), "count(extract(__f_a))");
}

TEST(Substitute, LeavesFunctionNamesAlone) {
  auto e = scsql::parse_expression("count(x)");
  auto out = substitute_vars(e, {{"count", "nope"}, {"x", "y"}});
  EXPECT_EQ(out->to_string(), "count(y)");
}

TEST(Substitute, NoChangeReturnsSamePointer) {
  auto e = scsql::parse_expression("count(extract(a))");
  auto out = substitute_vars(e, {{"z", "w"}});
  EXPECT_EQ(out, e);
}

TEST(Substitute, RenamesSelectDecls) {
  auto st = scsql::parse_statement("select extract(p) from sp p where p in a;");
  auto renamed = substitute_vars(st.query, {{"p", "__f_p"}, {"a", "__f_a"}});
  ASSERT_EQ(renamed->kind, scsql::ExprKind::kSelect);
  EXPECT_EQ(renamed->select->decls[0].name, "__f_p");
  EXPECT_EQ(renamed->select->predicates[0].lhs->name, "__f_p");
  EXPECT_EQ(renamed->select->predicates[0].rhs->name, "__f_a");
}

// ---------------------------------------------------------------------
// ClusterCoordinator
// ---------------------------------------------------------------------

struct CoordFixture : ::testing::Test {
  sim::Simulator sim;
  hw::Cndb cndb{8, [](int n) { return n / 4; }};

  int allocate(ClusterCoordinator& cc, AllocationSeq* seq) {
    int node = -1;
    sim.spawn([](ClusterCoordinator& c, AllocationSeq* s, int& out) -> sim::Task<void> {
      out = co_await c.allocate_node(s);
    }(cc, seq, node));
    sim.run();
    return node;
  }
};

TEST_F(CoordFixture, NaiveSelectionIsNextAvailable) {
  ClusterCoordinator cc(sim, "bg", cndb, 200e-6, 0.0, /*exclusive=*/true);
  EXPECT_EQ(allocate(cc, nullptr), 0);
  EXPECT_EQ(allocate(cc, nullptr), 1);  // 0 is now busy
  EXPECT_TRUE(cndb.busy(0));
  cc.release_node(0);
  EXPECT_FALSE(cndb.busy(0));
}

TEST_F(CoordFixture, AllocationSequencePinsNode) {
  ClusterCoordinator cc(sim, "bg", cndb, 200e-6, 0.0, true);
  AllocationSeq seq{{5}, 0};
  EXPECT_EQ(allocate(cc, &seq), 5);
  // Node 5 busy now; the single-entry sequence has no alternative.
  EXPECT_THROW(allocate(cc, &seq), scsql::Error);
}

TEST_F(CoordFixture, SequenceCyclesAcrossAllocations) {
  ClusterCoordinator cc(sim, "be", cndb, 200e-6, 0.0, /*exclusive=*/false);
  AllocationSeq seq{{2, 4, 6}, 0};
  EXPECT_EQ(allocate(cc, &seq), 2);
  EXPECT_EQ(allocate(cc, &seq), 4);
  EXPECT_EQ(allocate(cc, &seq), 6);
  EXPECT_EQ(allocate(cc, &seq), 2);  // wraps: non-exclusive nodes reusable
}

TEST_F(CoordFixture, SequenceSkipsBusyNodes) {
  ClusterCoordinator cc(sim, "bg", cndb, 200e-6, 0.0, true);
  cndb.set_busy(2, true);
  AllocationSeq seq{{2, 4}, 0};
  EXPECT_EQ(allocate(cc, &seq), 4);
}

TEST_F(CoordFixture, SequenceWithUnknownNodeThrows) {
  ClusterCoordinator cc(sim, "bg", cndb, 200e-6, 0.0, true);
  AllocationSeq seq{{42}, 0};
  EXPECT_THROW(allocate(cc, &seq), scsql::Error);
}

TEST_F(CoordFixture, BgPollingDelaysAllocation) {
  ClusterCoordinator direct(sim, "be", cndb, 200e-6, 0.0, false);
  allocate(direct, nullptr);
  const double t_direct = sim.now();
  EXPECT_NEAR(t_direct, 200e-6, 1e-12);

  sim::Simulator sim2;
  hw::Cndb cndb2{8};
  ClusterCoordinator polled(sim2, "bg", cndb2, 200e-6, 1e-3, true);
  int node = -1;
  sim2.spawn([](ClusterCoordinator& c, int& out) -> sim::Task<void> {
    out = co_await c.allocate_node(nullptr);
  }(polled, node));
  sim2.run();
  // Registration lands at 200us; the next poll tick is 1ms.
  EXPECT_NEAR(sim2.now(), 1e-3, 1e-12);
  EXPECT_EQ(node, 0);
}

TEST_F(CoordFixture, ExhaustedClusterThrows) {
  hw::Cndb tiny{2};
  ClusterCoordinator cc(sim, "bg", tiny, 0.0, 0.0, true);
  allocate(cc, nullptr);
  allocate(cc, nullptr);
  EXPECT_THROW(allocate(cc, nullptr), scsql::Error);
}

// ---------------------------------------------------------------------
// Engine runs: the values the client collects, and that the run ends
// ---------------------------------------------------------------------

TEST(EngineRun, SumOverReceivedStream) {
  // sum over an int stream received on the front end.
  Scsq scsq;
  const auto r = scsq.run(
      "select extract(b) from sp a, sp b "
      "where b=sp(sum(extract(a)), 'fe') "
      "and a=sp(iota(1, 10), 'be');");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 55);
  EXPECT_FALSE(r.stopped);
}

TEST(EngineRun, CountOfEmptyStreamIsZero) {
  // A zero-item producer: its end of stream alone reaches count, which
  // still emits its 0.
  Scsq scsq;
  const auto r = scsq.run(
      "select extract(b) from sp b "
      "where b=sp(count(gen_array(1000, 0)), 'be');");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 0);
  EXPECT_FALSE(r.stopped);
}

TEST(EngineRun, MergeOfUnevenProducersCountsEveryItem) {
  // Producers with 3, 6 and 9 items: the merge ends only after the
  // longest stream, with every item counted.
  Scsq scsq;
  const auto r = scsq.run(
      "select extract(c) from bag of sp a, sp c "
      "where c=sp(count(merge(a)),'bg',0) "
      "and a=spv((select gen_array(1000, i * 3) "
      "from integer i where i in iota(1,3)), 'bg', {1, 2, 3});");
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].as_int(), 18);
  EXPECT_FALSE(r.stopped);
}

}  // namespace
}  // namespace scsq::exec
