// Tie order of ER's sibling sorts.
//
// Serial ER finishes an e-node's unfinished children in ascending
// tentative-value order; siblings whose tentative values tie must keep
// their generation order.  The engine's re-typing for refutation
// (dispatch_refutations) sorts the same way and must keep child-index
// order among ties.  Both sorts are in-place stable insertion sorts; these
// trees make an unstable or reversed tie order visible in the visit order.

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "gametree/explicit_tree.hpp"
#include "search/er_serial.hpp"
#include "util/insertion_sort.hpp"

namespace ers {
namespace {

using P = ExplicitTree::Position;

/// ExplicitTree that logs every static evaluation, in order.
struct EvalLog {
  const ExplicitTree& tree;
  mutable std::vector<P> evaluated;

  using Position = P;
  [[nodiscard]] Position root() const { return tree.root(); }
  void generate_children(Position p, std::vector<Position>& out) const {
    tree.generate_children(p, out);
  }
  [[nodiscard]] Value evaluate(Position p) const {
    evaluated.push_back(p);
    return tree.evaluate(p);
  }
};

/// Root with children D, A, B, C (generation order).  Eval_first gives A, B
/// and C the same tentative value -5 and D the worse -3, so after the sort
/// A, B and C come first, in that order.  Each second grandchild raises its
/// parent above the tentative value, so none of A, B, C is cut off by the
/// root's rising bound and all three are refuted — in the order the sort
/// chose.  D is then cut off on its tentative value alone.
struct TiedSiblings {
  ExplicitTree t;
  P d{}, a{}, b{}, c{};
  P d2{}, a2{}, b2{}, c2{};

  TiedSiblings() {
    d = t.add_child(0);
    a = t.add_child(0);
    b = t.add_child(0);
    c = t.add_child(0);
    t.add_child(d, 3);
    d2 = t.add_child(d, 4);
    t.add_child(a, 5);
    a2 = t.add_child(a, 1);
    t.add_child(b, 5);
    b2 = t.add_child(b, 2);
    t.add_child(c, 5);
    c2 = t.add_child(c, 3);
  }
};

TEST(TieOrder, StableInsertionSortKeepsEqualKeysInInputOrder) {
  struct Item {
    int key;
    int tag;
  };
  std::vector<Item> v{{2, 0}, {1, 1}, {2, 2}, {0, 3}, {1, 4}, {2, 5}};
  stable_insertion_sort(v.begin(), v.end(),
                        [](const Item& x, const Item& y) { return x.key < y.key; });
  const std::vector<int> tags{3, 1, 4, 0, 2, 5};
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i].tag, tags[i]);
}

TEST(TieOrder, SerialErFinishesTiedSiblingsInGenerationOrder) {
  const TiedSiblings s;
  ASSERT_EQ(s.t.negmax_value(), 3);
  const EvalLog game{s.t, {}};
  const SearchResult r = er_serial_search(game, 2);
  EXPECT_EQ(r.value, 3);
  // Phase 1 evaluates the four elder grandchildren; phase 2 refutes A, B,
  // C in generation order (D's second grandchild is never needed).
  const std::vector<P> tail(game.evaluated.end() - 3, game.evaluated.end());
  EXPECT_EQ(game.evaluated.size(), 7u);
  EXPECT_EQ(tail, (std::vector<P>{s.a2, s.b2, s.c2}));
}

/// Every serial unit the engine computes for a cutover child, in pop order.
std::vector<P> refute_rest_order(const ExplicitTree& t,
                                 core::EngineConfig cfg) {
  core::Engine<ExplicitTree> engine(t, cfg);
  std::vector<P> order;
  while (!engine.done()) {
    auto item = engine.acquire();
    if (!item) break;
    if (item->kind == core::WorkKind::kSerialRefuteRest)
      order.push_back(*static_cast<const P*>(item->pos_ref));
    engine.commit(*item, engine.compute(*item));
  }
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.root_value(), 3);
  return order;
}

TEST(TieOrder, EngineRetypesTiedChildrenInChildIndexOrder) {
  const TiedSiblings s;
  for (const bool parallel : {false, true}) {
    core::EngineConfig cfg;
    cfg.search_depth = 2;
    cfg.serial_depth = 1;
    // No speculative e-children: A is the one mandatory e-child (the first
    // of the tied lowest), and B and C are reached only by re-typing.
    cfg.speculation.multiple_e_children = false;
    cfg.speculation.early_e_child_choice = false;
    cfg.speculation.parallel_refutation = parallel;
    const std::vector<P> order = refute_rest_order(s.t, cfg);
    ASSERT_GE(order.size(), 3u) << "parallel_refutation=" << parallel;
    EXPECT_EQ(std::vector<P>(order.begin(), order.begin() + 3),
              (std::vector<P>{s.a, s.b, s.c}))
        << "parallel_refutation=" << parallel;
  }
}

}  // namespace
}  // namespace ers
