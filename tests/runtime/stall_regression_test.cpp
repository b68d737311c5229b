// Liveness of the thread runtime on the trees where the multi-thread stall
// showed up: Table 3's R1 and R3 at 3 threads, hundreds of full searches
// each.  The executor used to decide "stalled" from its own in-flight
// counter after a failed acquire — a peer could commit new work and drop
// its claim in between, so runs that were making progress aborted.  The
// engine now checks the stall itself, in the acquire's critical section;
// every search here must finish with the alpha-beta root value.

#include <gtest/gtest.h>

#include <variant>

#include "core/parallel_er.hpp"
#include "harness/tree_registry.hpp"
#include "search/alpha_beta.hpp"

namespace ers {
namespace {

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ERS_STALL_TEST_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(ERS_STALL_TEST_TSAN)
constexpr int kSearches = 20;  // ThreadSanitizer runs an order slower
#else
constexpr int kSearches = 300;
#endif

void expect_every_search_finishes(const char* name) {
  const auto tree = harness::tree_by_name(name, 0);
  std::visit(
      [&](const auto& game) {
        const Value oracle = alpha_beta_search(game, tree.engine.search_depth,
                                               tree.engine.ordering)
                                 .value;
        for (int i = 0; i < kSearches; ++i) {
          const auto r = parallel_er_threads(game, tree.engine, 3);
          ASSERT_EQ(r.value, oracle) << name << " search " << i;
        }
      },
      tree.game);
}

TEST(StallRegression, R1ThreeThreads) { expect_every_search_finishes("R1"); }

TEST(StallRegression, R3ThreeThreads) { expect_every_search_finishes("R3"); }

}  // namespace
}  // namespace ers
