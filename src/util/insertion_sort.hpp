#pragma once
// In-place stable insertion sort.
//
// The search sorts short sibling ranges — a node's children by tentative
// value — many times per unit of work.  std::stable_sort asks the allocator
// for a temporary buffer on every call; this sort never allocates.  Both are
// stable under the same strict weak order, so they produce the same
// permutation, ties included (equal elements keep their input order).
// Quadratic in the worst case, which is cheap at game-tree branching factors.

#include <iterator>
#include <utility>

namespace ers {

/// A function object, so it can also be handed to code that takes the
/// stable sort to use (see ordering.hpp's child sorts).
struct StableInsertionSort {
  template <std::random_access_iterator It, typename Less>
  void operator()(It first, It last, Less less) const {
    if (first == last) return;
    for (It i = std::next(first); i != last; ++i) {
      if (!less(*i, *std::prev(i))) continue;
      auto moving = std::move(*i);
      It j = i;
      do {
        *j = std::move(*std::prev(j));
        --j;
      } while (j != first && less(moving, *std::prev(j)));
      *j = std::move(moving);
    }
  }
};

inline constexpr StableInsertionSort stable_insertion_sort{};

}  // namespace ers
