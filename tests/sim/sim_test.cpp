// Determinism and metric sanity for the discrete-event simulated executor.

#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include "core/parallel_er.hpp"
#include "randomtree/random_tree.hpp"
#include "search/er_serial.hpp"

namespace ers {
namespace {

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

TEST(Sim, BitReproducible) {
  const UniformRandomTree g(4, 5, 123, -100, 100);
  const auto a = parallel_er_sim(g, cfg(5, 3), 8);
  const auto b = parallel_er_sim(g, cfg(5, 3), 8);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.busy_time, b.metrics.busy_time);
  EXPECT_EQ(a.metrics.idle_time, b.metrics.idle_time);
  EXPECT_EQ(a.engine.search.nodes_generated(), b.engine.search.nodes_generated());
  EXPECT_EQ(a.engine.units_processed, b.engine.units_processed);
}

TEST(Sim, DifferentSeedsDifferentSchedules) {
  const UniformRandomTree g1(4, 5, 1, -100, 100);
  const UniformRandomTree g2(4, 5, 2, -100, 100);
  const auto a = parallel_er_sim(g1, cfg(5, 3), 8);
  const auto b = parallel_er_sim(g2, cfg(5, 3), 8);
  EXPECT_NE(a.metrics.makespan, b.metrics.makespan);
}

TEST(Sim, OneProcessorHasNoIdleTime) {
  const UniformRandomTree g(3, 4, 5, -50, 50);
  const auto r = parallel_er_sim(g, cfg(4, 2), 1);
  EXPECT_EQ(r.metrics.idle_time, 0u);
  EXPECT_EQ(r.metrics.lock_wait_time, 0u) << "one processor never contends";
  EXPECT_EQ(r.metrics.processors, 1);
}

TEST(Sim, ManyProcessorsStarveOnTinyTree) {
  const UniformRandomTree g(2, 2, 5, -50, 50);
  const auto r = parallel_er_sim(g, cfg(2, 1), 16);
  EXPECT_GT(r.metrics.idle_time, 0u) << "16 processors cannot all stay busy";
}

TEST(Sim, MakespanBoundedByTotalWork) {
  // P processors cannot be slower than... the makespan must at least cover
  // busy_time / P, and cannot exceed busy+idle+lock ranges.
  const UniformRandomTree g(4, 5, 17, -100, 100);
  for (int p : {1, 2, 4, 8}) {
    const auto r = parallel_er_sim(g, cfg(5, 3), p);
    EXPECT_GE(static_cast<double>(r.metrics.makespan) * p,
              static_cast<double>(r.metrics.busy_time))
        << "p=" << p;
    EXPECT_LE(r.metrics.busy_time + r.metrics.idle_time,
              static_cast<std::uint64_t>(r.metrics.makespan) * p +
                  r.metrics.makespan)
        << "p=" << p;
  }
}

TEST(Sim, UtilizationInUnitRange) {
  const UniformRandomTree g(4, 5, 29, -100, 100);
  for (int p : {1, 4, 16}) {
    const auto r = parallel_er_sim(g, cfg(5, 3), p);
    EXPECT_GT(r.metrics.utilization(), 0.0);
    EXPECT_LE(r.metrics.utilization(), 1.0 + 1e-9);
  }
}

TEST(Sim, HigherQueueCostIncreasesMakespan) {
  // The interference knob must actually model contention.
  const UniformRandomTree g(4, 5, 31, -100, 100);
  sim::CostModel cheap;
  cheap.per_heap_acquire = 0;
  cheap.per_heap_commit = 0;
  sim::CostModel pricey;
  pricey.per_heap_acquire = 10;
  pricey.per_heap_commit = 10;
  const auto a = parallel_er_sim(g, cfg(5, 3), 8, cheap);
  const auto b = parallel_er_sim(g, cfg(5, 3), 8, pricey);
  EXPECT_LT(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.value, b.value) << "cost model must never affect the result";
}

TEST(Sim, BatchedScheduleStaysExactAndDeterministic) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const UniformRandomTree g(4, 5, seed, -100, 100);
    const auto k1 = parallel_er_sim(g, cfg(5, 3), 8);
    for (const int batch : {2, 4, 8}) {
      const auto a = parallel_er_sim(g, cfg(5, 3), 8, {}, batch);
      const auto b = parallel_er_sim(g, cfg(5, 3), 8, {}, batch);
      EXPECT_EQ(a.value, k1.value) << "seed=" << seed << " batch=" << batch;
      EXPECT_EQ(a.metrics.makespan, b.metrics.makespan)
          << "batched schedule must stay bit-reproducible";
    }
  }
}

TEST(Sim, BatchingReducesHeapAccesses) {
  // The whole point: k units per serialized heap access instead of one.
  const UniformRandomTree g(4, 5, 9, -100, 100);
  const auto k1 = parallel_er_sim(g, cfg(5, 3), 8);
  const auto k4 = parallel_er_sim(g, cfg(5, 3), 8, {}, 4);
  EXPECT_LT(k4.metrics.heap_accesses, k1.metrics.heap_accesses);
}

TEST(Sim, BatchingReducesLockWaitUnderContention) {
  // Pricey heap + many processors: the contention-bound regime the paper
  // reports.  Batching must cut the share of time lost to the lock.
  sim::CostModel pricey;
  pricey.per_heap_acquire = 8;
  pricey.per_heap_commit = 8;
  const UniformRandomTree g(4, 5, 11, -100, 100);
  const auto k1 = parallel_er_sim(g, cfg(5, 4), 16, pricey);
  const auto k8 = parallel_er_sim(g, cfg(5, 4), 16, pricey, 8);
  EXPECT_GT(k1.metrics.lock_wait_time, 0u) << "baseline must actually contend";
  EXPECT_LT(static_cast<double>(k8.metrics.lock_wait_time) /
                static_cast<double>(k8.metrics.makespan * 16),
            static_cast<double>(k1.metrics.lock_wait_time) /
                static_cast<double>(k1.metrics.makespan * 16));
}

TEST(Sim, CostModelOfCountsAllComponents) {
  sim::CostModel m;
  m.per_interior = 3;
  m.per_leaf = 5;
  m.per_sort_eval = 7;
  m.per_unit_base = 11;
  SearchStats s;
  s.interior_expanded = 2;
  s.leaves_evaluated = 4;
  s.sort_evals = 1;
  EXPECT_EQ(m.of(s), 11u + 6u + 20u + 7u);
}

}  // namespace
}  // namespace ers
