// The shared move-ordering tables (search/ordering.hpp): exactness of the
// engine with the tables attached, and the concurrency hammer on the
// tables themselves.  Own test binary so the hammer rides the tsan lane
// (ctest -L tsan) without dragging the serial engine sweeps along.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/parallel_er.hpp"
#include "randomtree/random_tree.hpp"
#include "search/negmax.hpp"
#include "search/ordering.hpp"

namespace ers {
namespace {

TEST(SpecControl, ExactWithOrderingTablesAttached) {
  // Deep parallel region (serial cutover at the horizon): heavy speculative
  // traffic, with history/killer credit steering every expansion-time sort.
  OrderingTables tables;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const UniformRandomTree g(4, 6, seed, -90, 90);
    const Value oracle = negmax_search(g, 6).value;
    core::EngineConfig cfg;
    cfg.search_depth = 6;
    cfg.serial_depth = 3;
    cfg.ordering.sort_by_static_value = true;
    cfg.order_tables = &tables;
    tables.new_search();
    for (int p : {1, 16}) {
      const auto r = parallel_er_sim(g, cfg, p);
      EXPECT_EQ(r.value, oracle) << "seed=" << seed << " p=" << p;
    }
    tables.new_search();
    EXPECT_EQ(parallel_er_threads(g, cfg, 4).value, oracle) << "seed=" << seed;
  }
}

TEST(OrderingTablesHammer, ConcurrentHistoryAndKillers) {
  // 8 writers race add/probe/record/is_killer plus periodic new_search on
  // one shared table set; all ops are relaxed atomics — tsan must stay
  // silent and counters must respect their packing invariants.
  OrderingTables tables;
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&tables, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      std::uint64_t key = 0x9e3779b97f4a7c15ull * static_cast<unsigned>(t + 1);
      for (int i = 0; i < 50000; ++i) {
        key = key * 6364136223846793005ull + 1442695040888963407ull;
        tables.history.add(key, static_cast<std::uint32_t>(i % 97) + 1);
        (void)tables.history.probe(key ^ 0xff);
        tables.killers.record(i % KillerTable::kMaxPlies, key | 1);
        (void)tables.killers.is_killer((i + 1) % KillerTable::kMaxPlies, key);
        if (i % 8192 == 0 && t == 0) tables.new_search();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  // Saturating 24-bit counters: nothing probes above the cap.
  std::uint64_t key = 1;
  for (int i = 0; i < 1000; ++i) {
    key = key * 6364136223846793005ull + 1442695040888963407ull;
    EXPECT_LE(tables.history.probe(key), 0x00ffffffu);
  }
}

TEST(OrderingTables, HistoryAgesOutOnNewSearch) {
  HistoryTable h(6);
  h.add(42, 100);
  h.add(42, 50);
  EXPECT_EQ(h.probe(42), 150u);
  h.new_search();
  EXPECT_EQ(h.probe(42), 0u);
  h.add(42, 7);
  EXPECT_EQ(h.probe(42), 7u);
}

TEST(OrderingTables, KillerSlotsKeepLastTwoDistinct) {
  KillerTable k;
  k.record(3, 0xaa);
  k.record(3, 0xbb);
  EXPECT_TRUE(k.is_killer(3, 0xaa));
  EXPECT_TRUE(k.is_killer(3, 0xbb));
  k.record(3, 0xcc);  // evicts 0xaa (second slot now 0xbb)
  EXPECT_TRUE(k.is_killer(3, 0xcc));
  EXPECT_TRUE(k.is_killer(3, 0xbb));
  EXPECT_FALSE(k.is_killer(3, 0xaa));
  EXPECT_FALSE(k.is_killer(4, 0xcc)) << "plies are independent";
  k.record(3, 0xcc);  // re-recording the front slot must not duplicate it
  EXPECT_TRUE(k.is_killer(3, 0xbb));
  k.clear();
  EXPECT_FALSE(k.is_killer(3, 0xcc));
}

}  // namespace
}  // namespace ers
