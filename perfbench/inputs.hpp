#pragma once
// Inputs the benchmark owns.  Every input is drawn from the benchmark's own
// generator and the --seed argument, never from the library's RNG or its
// self-play (othello::selfplay_position picks moves with the library's
// evaluator, so an evaluator change would silently change the workload).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "othello/board.hpp"
#include "util/value.hpp"

namespace perfbench {

/// splitmix64 (Steele, Lea & Flood 2014), kept here so that the inputs do not
/// move when the library's util/rng.hpp does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is below 2^-50 for the n used here.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Seed of an independent stream: one per input family, so that adding
/// inputs to one family never shifts another.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t family) {
  return Rng(seed * 0x2545f4914f6cdd1dULL + family).next();
}

/// The Table 3 search setting for Othello: depth 7, serial depth 5, children
/// sorted by static value at plies 0-5.
inline constexpr int kOthelloDepth = 7;
inline constexpr int kOthelloSerialDepth = 5;
inline constexpr int kOthelloMaxSortPly = 6;

struct OthelloPosition {
  std::string name;
  ers::othello::Board board;
  /// Depth-7 exhaustive negamax value, for the stored positions only.
  std::optional<ers::Value> negamax_value;
};

/// O1-O3 as stored boards (the positions othello::paper_position(1..3)
/// returns, WHITE to move), with their depth-7 values from the benchmark's
/// own exhaustive negamax (reference.hpp).  Recompute the values with
///   python3 perfbench/run.py --reference
inline std::vector<OthelloPosition> stored_positions() {
  using ers::othello::Board;
  using ers::othello::Player;
  auto board = [](std::uint64_t black, std::uint64_t white) {
    Board b;
    b.black = black;
    b.white = white;
    b.to_move = Player::White;
    b.rehash();
    return b;
  };
  return {
      {"O1", board(0x080818080c0e0000ULL, 0x0000041430000000ULL), 374},
      {"O2", board(0x00001c08043e0800ULL, 0x000000343a000400ULL), 136},
      {"O3", board(0x00003c1f030f0800ULL, 0x000002003c101000ULL), 452},
  };
}

/// A midgame position reached from the initial position by `plies` uniformly
/// random legal moves (a forced pass counts as a ply).  Empty when the game
/// ends first.
inline std::optional<ers::othello::Board> random_playout(Rng& rng, int plies) {
  using namespace ers::othello;
  Board b = initial_board();
  for (int ply = 0; ply < plies; ++ply) {
    if (is_game_over(b)) return std::nullopt;
    Bitboard moves = legal_moves(b);
    if (moves == 0) {
      b = apply_pass(b);
      continue;
    }
    for (auto k = rng.below(static_cast<std::uint64_t>(popcount(moves))); k > 0;
         --k)
      moves &= moves - 1;
    b = apply_move(b, pop_lsb(moves));
  }
  if (is_game_over(b)) return std::nullopt;
  return b;
}

/// The Othello suite: O1-O3, then `total - 3` playouts of 12-24 plies.
inline std::vector<OthelloPosition> othello_suite(std::uint64_t seed, int total) {
  std::vector<OthelloPosition> suite = stored_positions();
  Rng rng(stream_seed(seed, 1));
  while (static_cast<int>(suite.size()) < total) {
    const int plies = 12 + static_cast<int>(rng.below(13));
    if (const auto b = random_playout(rng, plies))
      suite.push_back({"M" + std::to_string(suite.size()) + "p" +
                           std::to_string(plies),
                       *b, std::nullopt});
  }
  return suite;
}

/// One of the paper's Table 3 random-tree shapes.
struct TreeShape {
  const char* name;
  int degree;
  int depth;
  int serial_depth;
};
inline constexpr TreeShape kTreeShapes[] = {
    {"R1", 4, 10, 7}, {"R2", 4, 11, 7}, {"R3", 8, 7, 5}};

struct RandomTreeSpec {
  std::string name;
  TreeShape shape;
  std::uint64_t tree_seed;
};

/// `per_shape` uniform random trees of each Table 3 shape.
inline std::vector<RandomTreeSpec> random_trees(std::uint64_t seed,
                                                int per_shape) {
  std::vector<RandomTreeSpec> out;
  Rng rng(stream_seed(seed, 2));
  for (int i = 0; i < per_shape; ++i)
    for (const TreeShape& s : kTreeShapes)
      out.push_back({std::string(s.name) + "#" + std::to_string(i), s,
                     rng.next()});
  return out;
}

}  // namespace perfbench
