// Correctness of the parallel ER problem-heap engine: for every tree, every
// processor count, every serial-depth cutover and every speculation setting,
// the root value must equal serial negmax.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel_er.hpp"
#include "gametree/explicit_tree.hpp"
#include "randomtree/random_tree.hpp"
#include "randomtree/strongly_ordered.hpp"
#include "search/negmax.hpp"
#include "tictactoe/tictactoe.hpp"

namespace ers {
namespace {

core::EngineConfig config_for(int depth, int serial_depth) {
  core::EngineConfig cfg;
  cfg.search_depth = depth;
  cfg.serial_depth = serial_depth;
  return cfg;
}

TEST(Engine, SingleLeafTree) {
  ExplicitTree t;
  t.set_value(0, 13);
  const auto r = parallel_er_sim(t, config_for(5, 2), 4);
  EXPECT_EQ(r.value, 13);
}

TEST(Engine, FullySerialCutover) {
  // serial_depth == 0: the root itself is one serial unit.
  const UniformRandomTree g(3, 4, 9);
  const auto r = parallel_er_sim(g, config_for(4, 0), 8);
  EXPECT_EQ(r.value, negmax_search(g, 4).value);
  EXPECT_EQ(r.engine.serial_units, 1u);
}

TEST(Engine, FullyParallelNoCutover) {
  // serial_depth == search_depth: every horizon leaf is its own unit.
  const UniformRandomTree g(3, 3, 10);
  const auto r = parallel_er_sim(g, config_for(3, 3), 4);
  EXPECT_EQ(r.value, negmax_search(g, 3).value);
}

TEST(Engine, UnaryChain) {
  ExplicitTree t;
  auto a = t.add_child(0);
  auto b = t.add_child(a);
  t.add_child(b, 21);
  for (int p : {1, 3}) {
    const auto r = parallel_er_sim(t, config_for(10, 2), p);
    EXPECT_EQ(r.value, -21) << "p=" << p;
  }
}

TEST(Engine, TerminalsAboveCutover) {
  // A tree whose branches end before both the horizon and the cutover.
  ExplicitTree t;
  t.add_child(0, 5);                     // leaf at ply 1
  const auto deep = t.add_child(0);      // interior
  t.add_child(deep, 7);
  t.add_child(deep, -2);
  const auto r = parallel_er_sim(t, config_for(8, 6), 4);
  EXPECT_EQ(r.value, t.negmax_value());
}

struct EngineCase {
  int degree;
  int height;
  Value range;
  int serial_depth;
  int processors;
};

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<EngineCase, std::uint64_t>> {};

TEST_P(EngineEquivalence, SimMatchesNegmax) {
  const auto& [c, seed] = GetParam();
  const UniformRandomTree g(c.degree, c.height, seed, -c.range, c.range);
  const Value oracle = negmax_search(g, c.height).value;
  const auto r = parallel_er_sim(g, config_for(c.height, c.serial_depth),
                                 c.processors);
  EXPECT_EQ(r.value, oracle);
}

std::string engine_case_name(
    const ::testing::TestParamInfo<EngineEquivalence::ParamType>& info) {
  const auto& [c, seed] = info.param;
  return "d" + std::to_string(c.degree) + "h" + std::to_string(c.height) +
         "sd" + std::to_string(c.serial_depth) + "p" +
         std::to_string(c.processors) + "s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(::testing::Values(EngineCase{3, 4, 30, 2, 1},
                                         EngineCase{3, 4, 30, 2, 4},
                                         EngineCase{3, 4, 30, 2, 16},
                                         EngineCase{3, 5, 30, 3, 8},
                                         EngineCase{4, 4, 5, 2, 8},   // ties
                                         EngineCase{2, 7, 100, 4, 8},
                                         EngineCase{5, 3, 1000, 1, 8},
                                         EngineCase{4, 4, 30, 4, 8},
                                         EngineCase{4, 4, 30, 0, 8},
                                         EngineCase{1, 5, 9, 2, 4}),   // unary
                       ::testing::Range<std::uint64_t>(0, 10)),
    engine_case_name);

class SpeculationAblation : public ::testing::TestWithParam<int> {};

TEST_P(SpeculationAblation, AllTogglesStayExact) {
  const int mask = GetParam();
  core::EngineConfig cfg = config_for(5, 2);
  cfg.speculation.parallel_refutation = (mask & 1) != 0;
  cfg.speculation.multiple_e_children = (mask & 2) != 0;
  cfg.speculation.early_e_child_choice = (mask & 4) != 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const UniformRandomTree g(3, 5, seed, -40, 40);
    const Value oracle = negmax_search(g, 5).value;
    for (int p : {1, 4, 12}) {
      const auto r = parallel_er_sim(g, cfg, p);
      EXPECT_EQ(r.value, oracle) << "mask=" << mask << " seed=" << seed
                                 << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMasks, SpeculationAblation, ::testing::Range(0, 8));

TEST(Engine, VaryingDegreeTrees) {
  StronglyOrderedTree::Config c;
  c.min_degree = 1;
  c.max_degree = 6;
  c.height = 5;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    c.seed = seed + 900;
    const StronglyOrderedTree g(c);
    const Value oracle = negmax_search(g, 5).value;
    const auto r = parallel_er_sim(g, config_for(5, 3), 8);
    EXPECT_EQ(r.value, oracle) << "seed=" << c.seed;
  }
}

TEST(Engine, TicTacToeIsDraw) {
  const TicTacToe g;
  const auto r = parallel_er_sim(g, config_for(9, 4), 8);
  EXPECT_EQ(r.value, 0);
}

TEST(Engine, OrderingPolicyKeepsExactness) {
  core::EngineConfig cfg = config_for(5, 3);
  cfg.ordering = OrderingPolicy{.sort_by_static_value = true, .max_sort_ply = 5};
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const UniformRandomTree g(4, 5, seed, -60, 60);
    EXPECT_EQ(parallel_er_sim(g, cfg, 6).value, negmax_search(g, 5).value)
        << "seed=" << seed;
  }
}

TEST(Engine, SpeculativePromotionsHappenOnWideTrees) {
  const UniformRandomTree g(6, 4, 77, -100, 100);
  const auto r = parallel_er_sim(g, config_for(4, 2), 16);
  EXPECT_GT(r.engine.promotions_speculative, 0u)
      << "16 processors on a wide tree must exercise the speculative queue";
  // The first e-child selection happens either via Table 2 row 2 (mandatory)
  // or earlier through the speculative queue; both count as selections.
  EXPECT_GT(r.engine.promotions_mandatory + r.engine.promotions_speculative, 0u);
}

TEST(Engine, NoSpeculativePromotionsWhenDisabled) {
  core::EngineConfig cfg = config_for(4, 2);
  cfg.speculation.multiple_e_children = false;
  cfg.speculation.early_e_child_choice = false;
  const UniformRandomTree g(6, 4, 77, -100, 100);
  const auto r = parallel_er_sim(g, cfg, 16);
  EXPECT_EQ(r.engine.promotions_speculative, 0u);
}

TEST(Engine, MoreProcessorsExamineAtLeastAsManyNodesUsually) {
  // Speculative loss: parallel runs examine more nodes than P=1 (this is
  // Figure 12/13's phenomenon).  Deterministic for fixed seeds.
  const UniformRandomTree g(4, 6, 3, -100, 100);
  const auto p1 = parallel_er_sim(g, config_for(6, 3), 1);
  const auto p8 = parallel_er_sim(g, config_for(6, 3), 8);
  EXPECT_GE(p8.engine.search.nodes_generated(),
            p1.engine.search.nodes_generated());
}

TEST(Engine, ParallelTimeNotWorseThanSerialTimeOnBigTree) {
  const UniformRandomTree g(4, 6, 5, -100, 100);
  const auto p1 = parallel_er_sim(g, config_for(6, 3), 1);
  const auto p8 = parallel_er_sim(g, config_for(6, 3), 8);
  EXPECT_LT(p8.metrics.makespan, p1.metrics.makespan)
      << "8 simulated processors should beat 1 on a 4^6 tree";
}

TEST(Engine, StatsAreInternallyConsistent) {
  const UniformRandomTree g(4, 5, 6, -50, 50);
  const auto r = parallel_er_sim(g, config_for(5, 3), 4);
  EXPECT_GT(r.engine.units_processed, 0u);
  EXPECT_GT(r.engine.serial_units, 0u);
  EXPECT_GT(r.engine.search.leaves_evaluated, 0u);
  EXPECT_EQ(r.metrics.units, r.engine.units_processed);
}

// --- batched executor protocol -------------------------------------------

TEST(EngineBatch, AcquireBatchRespectsLimitAndOrder) {
  const UniformRandomTree g(4, 4, 21, -50, 50);
  using EngineT = core::Engine<UniformRandomTree>;
  EngineT engine(g, config_for(4, 2));
  std::vector<core::WorkItem> batch;
  const std::size_t got = engine.acquire_batch(3, batch);
  EXPECT_LE(got, 3u);
  EXPECT_EQ(got, batch.size());
  // The batch must coincide with what repeated single acquires would have
  // popped: commit nothing, so a fresh engine's single pops reproduce it.
  EngineT engine2(g, config_for(4, 2));
  for (const core::WorkItem& item : batch) {
    const auto single = engine2.acquire();
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->node, item.node);
    EXPECT_EQ(single->kind, item.kind);
  }
}

TEST(EngineBatch, BatchDriverMatchesNegmax) {
  // Drive the engine to completion through the batch forms only, at several
  // batch sizes: the root value must equal serial negmax every time.
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const UniformRandomTree g(3, 5, seed, -60, 60);
      using EngineT = core::Engine<UniformRandomTree>;
      EngineT engine(g, config_for(5, 3));
      std::vector<core::WorkItem> items;
      std::vector<EngineT::CommitEntry> batch;
      while (!engine.done()) {
        items.clear();
        batch.clear();
        const std::size_t got = engine.acquire_batch(k, items);
        if (got == 0) break;  // acquire can combine to the root
        EXPECT_LE(got, k);
        for (const core::WorkItem& item : items)
          batch.push_back({item, engine.compute(item)});
        engine.commit_batch(batch);
      }
      ASSERT_TRUE(engine.done()) << "k=" << k << " seed=" << seed;
      EXPECT_EQ(engine.root_value(), negmax_search(g, 5).value)
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(EngineBatch, SingleItemCallsAreUnchangedWrappers) {
  // A k=1 batch driver and the classic acquire/commit driver must walk the
  // identical schedule: same unit count, same nodes, same value.
  const UniformRandomTree g(4, 4, 33, -80, 80);
  using EngineT = core::Engine<UniformRandomTree>;
  EngineT a(g, config_for(4, 2));
  while (!a.done()) {
    auto item = a.acquire();
    if (!item) break;
    a.commit(*item, a.compute(*item));
  }
  EngineT b(g, config_for(4, 2));
  std::vector<core::WorkItem> items;
  std::vector<EngineT::CommitEntry> batch;
  while (!b.done()) {
    items.clear();
    batch.clear();
    if (b.acquire_batch(1, items) == 0) break;
    batch.push_back({items[0], b.compute(items[0])});
    b.commit_batch(batch);
  }
  EXPECT_EQ(a.root_value(), b.root_value());
  EXPECT_EQ(a.stats().units_processed, b.stats().units_processed);
  EXPECT_EQ(a.stats().search.nodes_generated(), b.stats().search.nodes_generated());
}

TEST(EngineBatch, QueuedCountReflectsQueues) {
  const UniformRandomTree g(4, 4, 5, -50, 50);
  core::Engine<UniformRandomTree> engine(g, config_for(4, 2));
  EXPECT_GE(engine.queued_count(), 1u) << "the root starts queued";
  std::vector<core::WorkItem> items;
  engine.acquire_batch(64, items);
  EXPECT_EQ(engine.queued_count(), 0u) << "a huge batch drains the queues";
}

// --- batched commits ------------------------------------------------------

TEST(EngineCombine, CombinedCommitsMatchSequentialCommits) {
  // A batch commit applies its entries back to back in one critical
  // section, exactly as the same entries committed record by record would.
  // Twin engines, identical up to a set of uncommitted batches; one commits
  // them all in one commit_batch call, the other commits them one record at
  // a time.  Every observable — the complete remaining pop order, the root
  // value, the tree, the stats block — must coincide.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const UniformRandomTree g(4, 5, seed + 60, -80, 80);
    using EngineT = core::Engine<UniformRandomTree>;
    EngineT combined(g, config_for(5, 3));
    EngineT sequential(g, config_for(5, 3));
    // Walk both engines through the same prefix so several units are ready.
    for (int r = 0; r < 6; ++r) {
      auto a = combined.acquire();
      auto b = sequential.acquire();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) break;
      ASSERT_EQ(a->node, b->node);
      combined.commit(*a, combined.compute(*a));
      sequential.commit(*b, sequential.compute(*b));
    }
    // Pull the same uncommitted units from each twin, computed but held.
    constexpr std::size_t kPer = 2;
    std::vector<core::WorkItem> ca, sa;
    combined.acquire_batch(6, ca);
    sequential.acquire_batch(6, sa);
    ASSERT_EQ(ca.size(), sa.size());
    EXPECT_EQ(combined.outstanding(), ca.size());
    std::vector<EngineT::CommitEntry> all;
    std::vector<std::vector<EngineT::CommitEntry>> sbatches;
    for (std::size_t i = 0; i < ca.size(); i += kPer) {
      sbatches.emplace_back();
      for (std::size_t j = i; j < std::min(i + kPer, ca.size()); ++j) {
        ASSERT_EQ(ca[j].node, sa[j].node);
        all.push_back({ca[j], combined.compute(ca[j])});
        sbatches.back().push_back({sa[j], sequential.compute(sa[j])});
      }
    }
    const std::uint64_t locks_before = combined.lock_stats().acquisitions;
    combined.commit_batch(all);
    EXPECT_EQ(combined.lock_stats().acquisitions, locks_before + 1)
        << "one batch commit is one critical section";
    for (std::vector<EngineT::CommitEntry>& b : sbatches)
      sequential.commit_batch(b);
    EXPECT_EQ(combined.outstanding(), 0u);
    EXPECT_EQ(sequential.outstanding(), 0u);
    // From here the engines must be indistinguishable: drain both to
    // completion and compare every observable.
    std::vector<std::uint32_t> corder, sorder;
    while (!combined.done()) {
      auto item = combined.acquire();
      if (!item.has_value()) break;
      corder.push_back(item->node);
      combined.commit(*item, combined.compute(*item));
    }
    while (!sequential.done()) {
      auto item = sequential.acquire();
      if (!item.has_value()) break;
      sorder.push_back(item->node);
      sequential.commit(*item, sequential.compute(*item));
    }
    EXPECT_EQ(corder, sorder) << "seed=" << seed;
    ASSERT_TRUE(combined.done());
    ASSERT_TRUE(sequential.done());
    EXPECT_EQ(combined.root_value(), sequential.root_value());
    EXPECT_EQ(combined.root_value(), negmax_search(g, 5).value);
    EXPECT_EQ(combined.tree_size(), sequential.tree_size());
    const core::EngineStats cs = combined.stats();
    const core::EngineStats ss = sequential.stats();
    EXPECT_EQ(cs.units_processed, ss.units_processed);
    EXPECT_EQ(cs.search.nodes_generated(), ss.search.nodes_generated());
    EXPECT_EQ(cs.search.leaves_evaluated, ss.search.leaves_evaluated);
    EXPECT_EQ(cs.promotions_mandatory, ss.promotions_mandatory);
    EXPECT_EQ(cs.promotions_speculative, ss.promotions_speculative);
    EXPECT_EQ(cs.refutations_dispatched, ss.refutations_dispatched);
    EXPECT_EQ(cs.cutoffs_at_pop, ss.cutoffs_at_pop);
  }
}

// --- liveness accounting ----------------------------------------------------

TEST(EngineLiveness, OutstandingCountsHandedOutUnits) {
  const UniformRandomTree g(4, 4, 5, -50, 50);
  using EngineT = core::Engine<UniformRandomTree>;
  EngineT engine(g, config_for(4, 2));
  EXPECT_EQ(engine.outstanding(), 0u);
  auto root = engine.acquire();
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(engine.outstanding(), 1u);
  // Nothing else is ready while the root is out, and that is not a stall:
  // the outstanding unit can still create work.
  EXPECT_FALSE(engine.acquire().has_value());
  EXPECT_FALSE(engine.stalled());
  engine.commit(*root, engine.compute(*root));
  EXPECT_EQ(engine.outstanding(), 0u);
  std::vector<core::WorkItem> items;
  const std::size_t got = engine.acquire_batch(3, items);
  EXPECT_EQ(engine.outstanding(), got);
  std::vector<EngineT::CommitEntry> batch;
  for (const core::WorkItem& item : items)
    batch.push_back({item, engine.compute(item)});
  engine.commit_batch(batch);
  EXPECT_EQ(engine.outstanding(), 0u);
  EXPECT_TRUE(engine.stall_report().empty());
}

TEST(EngineLivenessDeathTest, CommitOfAUnitNeverAcquiredAborts) {
  const UniformRandomTree g(4, 4, 5, -50, 50);
  using EngineT = core::Engine<UniformRandomTree>;
  EngineT engine(g, config_for(4, 2));
  auto root = engine.acquire();
  ASSERT_TRUE(root.has_value());
  auto result = engine.compute(*root);
  engine.commit(*root, std::move(result));
  // The same unit a second time: it is no longer outstanding.
  EXPECT_DEATH(engine.commit(*root, engine.compute(*root)),
               "commit of a unit never acquired");
}

TEST(EngineLiveness, DumpListsOutstandingUnitsNextToInFlightFlags) {
  const UniformRandomTree g(4, 4, 5, -50, 50);
  core::Engine<UniformRandomTree> engine(g, config_for(4, 2));
  auto root = engine.acquire();
  ASSERT_TRUE(root.has_value());
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  engine.debug_dump_unfinished(f);
  std::rewind(f);
  std::string text;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f))
    text.push_back(static_cast<char>(c));
  std::fclose(f);
  EXPECT_NE(text.find("outstanding units (1): 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("in-flight flags    (1): 0\n"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace ers
