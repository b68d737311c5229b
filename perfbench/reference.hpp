#pragma once
// Reference computations that share no search code with the library: a
// perft count and an exhaustive negamax, both written only against the Game
// interface (generate_children / evaluate).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gametree/game.hpp"
#include "util/value.hpp"

namespace perfbench {

/// Othello perft from the initial position, OEIS A124004, depths 1-8.
inline constexpr std::uint64_t kOthelloPerft[] = {4,    12,    56,    244,
                                                  1396, 8200,  55092, 390216};

/// Leaf count of the move tree `depth` plies below `p`; a position without
/// children counts as one leaf wherever it occurs.
template <ers::Game G>
std::uint64_t perft(const G& game, const typename G::Position& p, int depth,
                    std::vector<std::vector<typename G::Position>>& scratch) {
  if (depth == 0) return 1;
  auto& kids = scratch[static_cast<std::size_t>(depth)];
  kids.clear();
  game.generate_children(p, kids);
  if (kids.empty()) return 1;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kids.size(); ++i)
    n += perft(game, kids[i], depth - 1, scratch);
  return n;
}

template <ers::Game G>
std::uint64_t perft(const G& game, int depth) {
  std::vector<std::vector<typename G::Position>> scratch(
      static_cast<std::size_t>(depth) + 1);
  return perft(game, game.root(), depth, scratch);
}

/// Negamax without pruning: the value of every node is the maximum of its
/// negated children, leaves (depth limit or no children) take the static
/// value.  This is the definition every search in the library must match.
template <ers::Game G>
ers::Value negamax(const G& game, const typename G::Position& p, int depth,
                   std::vector<std::vector<typename G::Position>>& scratch) {
  auto& kids = scratch[static_cast<std::size_t>(depth)];
  kids.clear();
  if (depth > 0) game.generate_children(p, kids);
  if (kids.empty()) return game.evaluate(p);
  ers::Value best = -ers::kValueInf;
  for (std::size_t i = 0; i < kids.size(); ++i)
    best = std::max(best, -negamax(game, kids[i], depth - 1, scratch));
  return best;
}

template <ers::Game G>
ers::Value negamax(const G& game, int depth) {
  std::vector<std::vector<typename G::Position>> scratch(
      static_cast<std::size_t>(depth) + 1);
  return negamax(game, game.root(), depth, scratch);
}

}  // namespace perfbench
