// Deterministic interleaving fuzzer for the engine protocol.  One thread
// plays N virtual workers: each acquires a batch of up to k units,
// computes them one at a time and commits them, and a seeded RNG picks
// which worker takes the next step — so thousands of interleavings of
// acquire/compute/commit run with no timing luck involved, and a failing
// seed replays exactly (the same seed walks the same schedule).
//
// After every step:
//   * the engine's outstanding-unit count equals the number of units the
//     virtual workers hold (acquired, not yet committed);
//   * no stall is reported — the engine only calls a failed acquire a
//     stall when nothing is ready, nothing is outstanding and the search is
//     not done, which never happens to a correct engine.
// At the end the root value equals alpha-beta.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "core/engine.hpp"
#include "harness/tree_registry.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "util/rng.hpp"

namespace ers {
namespace {

/// One virtual worker: units it acquired, the prefix of them it computed.
template <typename EngineT>
struct VirtualWorker {
  std::vector<core::WorkItem> held;
  std::vector<typename EngineT::CommitEntry> computed;
};

/// Drive `game` to completion under the interleaving `seed` picks; returns
/// the acquired node ids in order (the schedule) and reports every broken
/// invariant with the seed that replays it.
template <Game G>
std::vector<std::uint32_t> fuzz_one(const G& game,
                                    const core::EngineConfig& cfg,
                                    std::uint64_t seed, int workers,
                                    std::size_t k, Value oracle,
                                    const std::string& what) {
  using EngineT = core::Engine<G>;
  const std::string replay = what + " seed=" + std::to_string(seed) +
                             " workers=" + std::to_string(workers) +
                             " k=" + std::to_string(k);
  EngineT engine(game, cfg);
  Xoshiro256StarStar rng(seed);
  std::vector<VirtualWorker<EngineT>> w(static_cast<std::size_t>(workers));
  std::vector<std::uint32_t> schedule;
  std::size_t held = 0;
  std::vector<core::WorkItem> items;
  for (std::uint64_t step = 0; !engine.done(); ++step) {
    if (step > 10'000'000) {
      ADD_FAILURE() << "no progress: " << replay;
      break;
    }
    VirtualWorker<EngineT>& v =
        w[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(workers)))];
    if (v.held.empty()) {
      items.clear();
      engine.acquire_batch(k, items);
      for (const core::WorkItem& item : items) schedule.push_back(item.node);
      v.held = items;
      held += items.size();
    } else if (v.computed.size() < v.held.size() && rng.below(4) != 0) {
      const core::WorkItem& item = v.held[v.computed.size()];
      v.computed.push_back({item, engine.compute(item)});
    } else if (!v.computed.empty()) {
      // Commit the computed prefix (the whole batch, usually).
      const std::size_t n = v.computed.size();
      engine.commit_batch(v.computed);
      v.computed.clear();
      v.held.erase(v.held.begin(),
                   v.held.begin() + static_cast<std::ptrdiff_t>(n));
      held -= n;
    }
    if (engine.outstanding() != held) {
      ADD_FAILURE() << "engine counts " << engine.outstanding()
                    << " outstanding units, the workers hold " << held
                    << ": " << replay;
      break;
    }
    if (engine.stalled()) {
      ADD_FAILURE() << "stall reported with " << held
                    << " units held: " << replay << "\n"
                    << engine.stall_report();
      break;
    }
  }
  EXPECT_TRUE(engine.done()) << replay;
  EXPECT_EQ(engine.root_value(), oracle) << replay;
  return schedule;
}

core::EngineConfig config_for(int depth, int serial_depth) {
  core::EngineConfig cfg;
  cfg.search_depth = depth;
  cfg.serial_depth = serial_depth;
  return cfg;
}

/// Fuzz `seeds` interleavings of random trees of one shape, cycling the
/// tree seed, the worker count and the batch size k in {1, 4}.
void fuzz_random_shape(const char* what, int degree, int depth,
                       int serial_depth, std::uint64_t seeds) {
  std::map<std::uint64_t, Value> oracle;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const std::uint64_t tree_seed = seed % 16;
    const UniformRandomTree g(degree, depth, tree_seed, -1000, 1000);
    if (oracle.count(tree_seed) == 0)
      oracle[tree_seed] = alpha_beta_search(g, depth).value;
    const int workers = 2 + static_cast<int>(seed % 7);
    const std::size_t k = seed % 2 == 0 ? 1 : 4;
    (void)fuzz_one(g, config_for(depth, serial_depth), seed, workers, k,
                   oracle[tree_seed],
                   std::string(what) + " tree_seed=" + std::to_string(tree_seed));
    if (::testing::Test::HasFailure()) return;  // one replayable seed is enough
  }
}

// R1 is degree 4 with a three-ply parallel region (depth 10, serial 7);
// R3 is degree 8 with a two-ply one (depth 7, serial 5).  The fuzzed
// shapes keep the degree and the parallel region and shorten the serial
// tail, so thousands of seeds stay cheap.
TEST(InterleavingFuzz, R1ShapedTrees) {
  fuzz_random_shape("R1-shaped", 4, 6, 3, 2000);
}

TEST(InterleavingFuzz, R3ShapedTrees) {
  fuzz_random_shape("R3-shaped", 8, 4, 2, 2000);
}

TEST(InterleavingFuzz, ShallowO1) {
  // O1 three plies shallower: depth 4, serial cutover at ply 2.
  const auto tree = harness::tree_by_name("O1", 3);
  std::visit(
      [&](const auto& game) {
        const Value oracle = alpha_beta_search(game, tree.engine.search_depth,
                                               tree.engine.ordering)
                                 .value;
        for (std::uint64_t seed = 0; seed < 200; ++seed) {
          (void)fuzz_one(game, tree.engine, seed,
                         2 + static_cast<int>(seed % 7), seed % 2 == 0 ? 1 : 4,
                         oracle, "O1 scale 3");
          if (::testing::Test::HasFailure()) return;
        }
      },
      tree.game);
}

TEST(InterleavingFuzz, SeedReplaysExactly) {
  const UniformRandomTree g(4, 6, 3, -1000, 1000);
  const Value oracle = alpha_beta_search(g, 6).value;
  for (const std::uint64_t seed : {11u, 12u}) {
    const auto a = fuzz_one(g, config_for(6, 3), seed, 5, 4, oracle, "replay");
    const auto b = fuzz_one(g, config_for(6, 3), seed, 5, 4, oracle, "replay");
    EXPECT_EQ(a, b) << "seed " << seed << " walked two different schedules";
    EXPECT_FALSE(a.empty());
  }
}

}  // namespace
}  // namespace ers
