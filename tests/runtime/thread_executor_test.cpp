// Real-concurrency correctness of the shared-memory runtime: the thread
// executor must terminate and produce the exact negmax value under OS
// scheduling nondeterminism.

#include "runtime/thread_executor.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "core/parallel_er.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/negmax.hpp"
#include "tictactoe/tictactoe.hpp"

namespace ers {
namespace {

core::EngineConfig cfg(int depth, int serial) {
  core::EngineConfig c;
  c.search_depth = depth;
  c.serial_depth = serial;
  return c;
}

TEST(ThreadExecutor, SingleThreadMatchesNegmax) {
  const UniformRandomTree g(4, 5, 41, -100, 100);
  const auto r = parallel_er_threads(g, cfg(5, 3), 1);
  EXPECT_EQ(r.value, negmax_search(g, 5).value);
}

TEST(ThreadExecutor, MultiThreadMatchesNegmax) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const UniformRandomTree g(4, 5, seed, -100, 100);
    const Value oracle = negmax_search(g, 5).value;
    for (int threads : {2, 4}) {
      const auto r = parallel_er_threads(g, cfg(5, 3), threads);
      EXPECT_EQ(r.value, oracle) << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ThreadExecutor, RepeatedRunsAreStableInValue) {
  // Schedules differ run to run; the value must not.
  const UniformRandomTree g(5, 5, 7, -100, 100);
  const Value oracle = negmax_search(g, 5).value;
  for (int i = 0; i < 5; ++i) {
    const auto r = parallel_er_threads(g, cfg(5, 3), 4);
    EXPECT_EQ(r.value, oracle) << "run " << i;
  }
}

TEST(ThreadExecutor, TinyTreeManyThreads) {
  // More threads than work units: workers must park and wake correctly.
  const UniformRandomTree g(2, 2, 3, -10, 10);
  const auto r = parallel_er_threads(g, cfg(2, 1), 8);
  EXPECT_EQ(r.value, negmax_search(g, 2).value);
}

TEST(ThreadExecutor, DegenerateDepthZero) {
  const UniformRandomTree g(4, 4, 3, -10, 10);
  const auto r = parallel_er_threads(g, cfg(0, 0), 4);
  EXPECT_EQ(r.value, g.evaluate(g.root()));
}

TEST(ThreadExecutor, TicTacToeDraw) {
  const TicTacToe g;
  const auto r = parallel_er_threads(g, cfg(9, 4), 4);
  EXPECT_EQ(r.value, 0);
}

TEST(ThreadExecutor, OthelloMatchesSerial) {
  const othello::OthelloGame g(othello::paper_position(1));
  const Value oracle = negmax_search(g, 4).value;
  const auto r = parallel_er_threads(g, cfg(4, 2), 4);
  EXPECT_EQ(r.value, oracle);
}

TEST(ThreadExecutor, FullyParallelCutover) {
  const UniformRandomTree g(3, 4, 11, -50, 50);
  const auto r = parallel_er_threads(g, cfg(4, 4), 4);
  EXPECT_EQ(r.value, negmax_search(g, 4).value);
}

TEST(ThreadExecutor, UnitsAccounted) {
  const UniformRandomTree g(4, 4, 13, -50, 50);
  core::Engine<UniformRandomTree> engine(g, cfg(4, 2));
  runtime::ThreadExecutor<core::Engine<UniformRandomTree>> exec(2);
  const auto report = exec.run(engine);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(report.units, engine.stats().units_processed);
  EXPECT_EQ(report.threads, 2);
}

// --- batched scheduling ---------------------------------------------------

TEST(ThreadExecutor, DeterminismSweepRandomTrees) {
  // The contract of the batched scheduler: same root value across every
  // thread count × batch size, under real OS nondeterminism.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const UniformRandomTree g(4, 5, seed + 50, -100, 100);
    const Value oracle = negmax_search(g, 5).value;
    for (const int threads : {1, 2, 4, 8}) {
      for (const int batch : {1, 4}) {
        const auto r = parallel_er_threads(g, cfg(5, 3), threads, batch);
        EXPECT_EQ(r.value, oracle)
            << "seed=" << seed << " threads=" << threads << " batch=" << batch;
      }
    }
  }
}

TEST(ThreadExecutor, DeterminismSweepOthelloMidgame) {
  const othello::OthelloGame g(othello::paper_position(2));
  const Value oracle = negmax_search(g, 4).value;
  for (const int threads : {1, 2, 4, 8}) {
    for (const int batch : {1, 4}) {
      const auto r = parallel_er_threads(g, cfg(4, 2), threads, batch);
      EXPECT_EQ(r.value, oracle)
          << "threads=" << threads << " batch=" << batch;
    }
  }
}

TEST(ThreadExecutor, BatchedRunAccountsEveryUnit) {
  const UniformRandomTree g(4, 4, 13, -50, 50);
  core::Engine<UniformRandomTree> engine(g, cfg(4, 2));
  runtime::ThreadExecutor<core::Engine<UniformRandomTree>> exec(2);
  exec.with_batch_size(4);
  const auto report = exec.run(engine);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(report.units, engine.stats().units_processed);
  EXPECT_EQ(report.sched.units, report.units);
}

TEST(ThreadExecutor, SchedulerStatsAreCoherent) {
  const UniformRandomTree g(4, 5, 17, -100, 100);
  core::Engine<UniformRandomTree> engine(g, cfg(5, 3));
  runtime::ThreadExecutor<core::Engine<UniformRandomTree>> exec(4);
  exec.with_batch_size(4);
  const auto report = exec.run(engine);
  const auto& s = report.sched;
  EXPECT_GT(s.lock_acquisitions, 0u);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GE(s.units, s.batches) << "batches hold at least one unit";
  EXPECT_LE(s.units, s.batches * 4) << "batches hold at most k units";
  EXPECT_GE(s.mean_batch_size(), 1.0);
  EXPECT_LE(s.mean_batch_size(), 4.0);
  EXPECT_EQ(s.batch_hist.count(), s.batches)
      << "every batch lands in one bucket";
  EXPECT_GT(report.elapsed_ns, 0u);
  EXPECT_GE(report.lock_wait_share(), 0.0);
  EXPECT_LE(report.lock_wait_share(), 1.0);
}

TEST(ThreadExecutor, LargeBatchOnTinyTreeStillCompletes) {
  // Batch size far beyond the work available: workers must not hoard-starve
  // or deadlock.
  const UniformRandomTree g(2, 3, 3, -10, 10);
  const auto r = parallel_er_threads(g, cfg(3, 1), 8, 64);
  EXPECT_EQ(r.value, negmax_search(g, 3).value);
}

TEST(ThreadExecutor, RepeatedBatchedRunsAreStableInValue) {
  const UniformRandomTree g(5, 5, 7, -100, 100);
  const Value oracle = negmax_search(g, 5).value;
  for (int i = 0; i < 5; ++i) {
    const auto r = parallel_er_threads(g, cfg(5, 3), 4, 8);
    EXPECT_EQ(r.value, oracle) << "run " << i;
  }
}

// --- raw protocol drivers -------------------------------------------------

TEST(ThreadExecutor, DirectProtocolCrossShardHammer) {
  // Eight raw protocol drivers race batch-2 acquire/compute/commit loops on
  // the one problem heap, so acquires of several units, multi-record commit
  // backups and lock-free compute phases all interleave with no executor
  // policy smoothing them.  (The name predates the single heap: the old
  // per-shard heaps are gone, the raw-driver hammer stays.)
  const UniformRandomTree g(4, 5, 73, -100, 100);
  using EngineT = core::Engine<UniformRandomTree>;
  EngineT engine(g, cfg(5, 3));
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&engine] {
      std::vector<core::WorkItem> items;
      std::vector<EngineT::CommitEntry> batch;
      while (!engine.done() && !engine.stalled()) {
        items.clear();
        batch.clear();
        if (engine.acquire_batch(2, items) == 0) {
          std::this_thread::yield();
          continue;
        }
        for (const core::WorkItem& item : items)
          batch.push_back({item, engine.compute(item)});
        engine.commit_batch(batch);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_FALSE(engine.stalled()) << engine.stall_report();
  ASSERT_TRUE(engine.done());
  EXPECT_EQ(engine.root_value(), negmax_search(g, 5).value);
  EXPECT_EQ(engine.outstanding(), 0u);
  EXPECT_GT(engine.lock_stats().acquisitions, 0u);
}

TEST(ThreadExecutor, NearRootRaiseHammer) {
  // Raw protocol drivers — no executor batching or parking — race batch-1
  // acquire/compute/commit loops on a shallow parallel region, so root and
  // near-root raises from different threads interleave as densely as the
  // engine lock allows, alongside concurrent lock-free compute phases.  A
  // failed acquire is only ever a stall if the engine says so.  The root
  // value must come out exact every round.  ThreadSanitizer target.
  const UniformRandomTree g(4, 5, 79, -100, 100);
  const Value oracle = negmax_search(g, 5).value;
  for (int rep = 0; rep < 3; ++rep) {
    using EngineT = core::Engine<UniformRandomTree>;
    EngineT engine(g, cfg(5, 3));
    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&engine] {
        std::vector<core::WorkItem> items;
        std::vector<EngineT::CommitEntry> batch;
        while (!engine.done() && !engine.stalled()) {
          items.clear();
          batch.clear();
          if (engine.acquire_batch(1, items) == 0) {
            std::this_thread::yield();
            continue;
          }
          for (const core::WorkItem& item : items)
            batch.push_back({item, engine.compute(item)});
          engine.commit_batch(batch);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    ASSERT_FALSE(engine.stalled()) << engine.stall_report();
    ASSERT_TRUE(engine.done());
    EXPECT_EQ(engine.root_value(), oracle) << "rep=" << rep;
    EXPECT_EQ(engine.outstanding(), 0u);
    EXPECT_GT(engine.lock_stats().acquisitions, 0u);
  }
}

}  // namespace
}  // namespace ers
