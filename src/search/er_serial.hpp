#pragma once
// Serial ER (paper §5, Figure 8).
//
// ER views search as *evaluating* one child per node (the e-child) and
// *refuting* the rest.  Before committing to an e-child of node E, ER
// evaluates the first child of every child of E (E's "elder grandchildren"),
// then sorts E's children by the resulting tentative values and finishes
// them in that order: the first unfinished child effectively becomes the
// e-child, and the improved bound it produces refutes the others.
//
// Structure, following Figure 8:
//   er(P)          — the paper's ER: Eval_first every child, sort by
//                    tentative value, then Refute_rest the unfinished ones.
//   eval_first(P)  — evaluate P's first child (recursively, with er), giving
//                    P a tentative value; P is done if that already cuts off
//                    or P has a single child.
//   refute_rest(P) — finish P: try to refute its remaining children in
//                    order, re-descending with eval_first/refute_rest.
//
// Deviation from the printed pseudocode (documented in DESIGN.md §1):
// Refute_rest begins with `value := max(value, alpha)` rather than
// `value := alpha`; the literal assignment discards the tentative value from
// Eval_first and can produce an unsound spurious cutoff in the parent.  The
// regression test RefuteRestKeepsTentativeValue pins a tree where the
// literal pseudocode returns a wrong root value.
//
// Move ordering (paper §7): children of non-e-nodes may be statically
// sorted; e-node children never are — ER orders them by the (better)
// search-derived tentative values, which is why serial ER can beat
// alpha-beta in wall time even while visiting more nodes (the O1 anomaly).
//
// Shared transposition table (HashedGame only): with_shared_table() attaches
// a lock-free ConcurrentTranspositionTable that the search probes and stores
// as it goes — ER full evaluations (er) probe on entry and store their
// classified fail-hard result on exit; Eval_first accepts only *conclusive*
// hits (exact, or a bound that already resolves the window) since its normal
// result is tentative and must not be stored; Refute_rest stores its final
// value (it completes the node).  This is how parallel ER workers share
// search knowledge: every serial subtree unit reads and feeds the one table.
//
// Storage (DESIGN.md §1): a search keeps its records in one flat arena
// (ErSerialArena) rather than a tree of per-node child vectors.  A record
// names its children by an index range into the arena, so the recursion
// works on indices — the arena may reallocate as it grows — and records of
// a subtree whose value is final are released from the arena's tail.  The
// phase-2 sibling sort and the static child sorts are in-place stable
// insertion sorts: the same permutation std::stable_sort gives, ties
// included, without its temporary buffer.  An arena reused across searches
// (one per worker; the parallel engine keeps it in its recycled
// ComputeResults) makes a warm serial unit allocation-free.  One-shot
// searches use the searcher's own arena.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gametree/game.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/ordering.hpp"
#include "util/check.hpp"
#include "util/insertion_sort.hpp"
#include "util/value.hpp"

namespace ers {

/// One serial-ER search record: Figure 8's `node`, with the child list
/// cached so eval_first and refute_rest see one consistent, once-generated
/// ordering.  The children are the `count` records of the same arena
/// starting at index `first`.
template <Game G>
struct ErRecord {
  explicit ErRecord(typename G::Position position) : pos(std::move(position)) {}

  typename G::Position pos;
  Value value = -kValueInf;  ///< tentative value, own side's perspective
  bool done = false;
  bool expanded = false;
  std::uint32_t first = 0;  ///< index of the first child record
  std::uint32_t count = 0;  ///< number of children (0 once known: a leaf)
};

/// Reusable storage for serial-ER searches: the record arena plus the
/// expansion and child-sort scratch.  Every buffer keeps its capacity from
/// one search to the next, so a worker that reuses one arena searches
/// without touching the heap once the buffers have grown.  Not thread-safe:
/// one arena per worker (the engine keeps one in each recycled
/// ComputeResult).
template <Game G>
struct ErSerialArena {
  std::vector<ErRecord<G>> records;
  std::vector<typename G::Position> children;  ///< expansion scratch
  OrderingScratch<G> ordering;                 ///< child-sort scratch
};

template <Game G>
class ErSerialSearcher {
 public:
  ErSerialSearcher(const G& game, int depth, OrderingPolicy ordering = {})
      : game_(game), depth_(depth), ordering_(ordering) {}
  ErSerialSearcher(const G&&, int, OrderingPolicy = {}) = delete;
  // arena_ may point at own_arena_: a copy would share the original's.
  ErSerialSearcher(const ErSerialSearcher&) = delete;
  ErSerialSearcher& operator=(const ErSerialSearcher&) = delete;

  /// Probe/store `table` during the search (shared-memory runtime: one table
  /// serves every worker's serial units).  Ignored unless G is a HashedGame.
  /// Pass nullptr to detach.
  ErSerialSearcher& with_shared_table(ConcurrentTranspositionTable* table) noexcept {
    tt_ = table;
    return *this;
  }

  /// Consult (and train) shared history/killer tables during expansion-time
  /// child sorts — the TT move sorts first when a probe carries a hint,
  /// killers of the child ply next, history credit breaks ties (DESIGN.md
  /// §17).  Ignored unless G is a HashedGame.  Pass nullptr to detach.
  ErSerialSearcher& with_ordering_tables(OrderingTables* tables) noexcept {
    tables_ = tables;
    return *this;
  }

  /// Keep the search's records and scratch in `arena` — a worker's, reused
  /// unit after unit — instead of the searcher's own, which lives and dies
  /// with the searcher.  Pass nullptr to go back to the searcher's own.
  ErSerialSearcher& with_arena(ErSerialArena<G>* arena) noexcept {
    arena_ = arena != nullptr ? arena : &own_arena_;
    return *this;
  }

  [[nodiscard]] SearchResult run() { return run_from(game_.root(), 0); }

  /// Search the subtree rooted at `pos` (which sits at absolute ply
  /// `start_ply`; the horizon stays at the searcher's configured depth) with
  /// an initial window.  Fail-hard with respect to `w`.  This entry point is
  /// what the parallel engine uses below its serial-depth cutover.
  [[nodiscard]] SearchResult run_from(typename G::Position pos, int start_ply,
                                      Window w = full_window()) {
    best_root_.reset();
    root_ply_ = start_ply;
    const std::uint32_t root = start_search(std::move(pos));
    const Value v = er(root, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

  /// The root child that achieved the returned value (the move to play);
  /// empty if the root was a leaf.  Valid after run()/run_from().
  [[nodiscard]] const std::optional<typename G::Position>& best_root_position()
      const noexcept {
    return best_root_;
  }

  /// Result of an Eval_first-only unit (parallel engine, cutover nodes).
  struct PartialResult {
    Value value = 0;
    bool done = false;  ///< cutoff achieved or single child: node resolved
    SearchStats stats;
  };

  /// Figure 8's Eval_first applied at (pos, start_ply): generate (and
  /// order) the children, fully evaluate the first one, and report the
  /// node's tentative value.  The frozen child order, which a later
  /// refute_rest_from continues from, is written to `children` (cleared
  /// first; its capacity is reused, so a recycled buffer does not
  /// allocate).  It stays empty when the node is a leaf or a table hit
  /// resolved it.
  [[nodiscard]] PartialResult eval_first_from(
      typename G::Position pos, int start_ply, Window w,
      std::vector<typename G::Position>& children) {
    const std::uint32_t root = start_search(std::move(pos));
    PartialResult out;
    out.value = eval_first(root, w.alpha, w.beta, start_ply);
    const Record& r = records()[root];
    out.done = r.done;
    children.clear();
    for (std::uint32_t k = r.first; k < r.first + r.count; ++k)
      children.push_back(records()[k].pos);
    out.stats = stats_;
    return out;
  }

  /// Figure 8's Refute_rest applied at (pos, start_ply): finish a node whose
  /// first child already contributed `tentative`; `children` must be the
  /// exact list returned by eval_first_from (the expansion is not recounted).
  /// Takes a span so the parallel engine can pass its slab-frozen child
  /// array without materializing a vector.
  [[nodiscard]] SearchResult refute_rest_from(
      typename G::Position pos, int start_ply, Window w, Value tentative,
      std::span<const typename G::Position> children) {
    ERS_CHECK(!children.empty());
    const std::uint32_t root = start_search(std::move(pos));
    auto& recs = records();
    for (const auto& c : children) recs.emplace_back(c);
    Record& r = recs[root];
    r.expanded = true;
    r.first = root + 1;
    r.count = static_cast<std::uint32_t>(children.size());
    r.value = tentative;
    const Value v = refute_rest(root, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

  /// Serial refutation of a fresh node: Eval_first, then (if not already
  /// done) Refute_rest — the r-node path of Figure 8's main loop.
  [[nodiscard]] SearchResult refute_from(typename G::Position pos,
                                         int start_ply, Window w) {
    const std::uint32_t root = start_search(std::move(pos));
    Value v = eval_first(root, w.alpha, w.beta, start_ply);
    if (!records()[root].done) v = refute_rest(root, w.alpha, w.beta, start_ply);
    return SearchResult{v, stats_};
  }

 private:
  using Record = ErRecord<G>;

  [[nodiscard]] std::vector<Record>& records() noexcept {
    return arena_->records;
  }

  /// Start a search: fresh counters, an empty arena holding only the root
  /// record.  Returns the root's index.
  std::uint32_t start_search(typename G::Position pos) {
    stats_ = {};
    records().clear();
    records().emplace_back(std::move(pos));
    return 0;
  }

  /// Drop every record from index `mark` on.  Called when the subtree that
  /// appended them has its final value (Eval_first's ER of the first
  /// child, each child Refute_rest finishes): no caller reads a finished
  /// subtree's records again, so the arena stays as small as the search's
  /// frontier instead of growing with the tree.
  void release(std::size_t mark) {
    auto& recs = records();
    recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(mark), recs.end());
  }

  /// Generate (once) and possibly statically order the children of record
  /// `r`, appending them to the arena.  Returns true if `r` is a leaf at
  /// this ply.  Appending may reallocate the arena: callers re-index
  /// records after it rather than hold references across it.
  bool expand(std::uint32_t r, int ply, bool is_e_node) {
    auto& recs = records();
    if (recs[r].expanded) return recs[r].count == 0;
    recs[r].expanded = true;
    auto& kids = arena_->children;
    kids.clear();
    kids.reserve(branching_hint_of(game_));
    if (ply < depth_) game_.generate_children(recs[r].pos, kids);
    if (kids.empty()) {
      ++stats_.leaves_evaluated;
      return true;
    }
    ++stats_.interior_expanded;
    if (!is_e_node && ordering_.should_sort(ply)) {
      bool sorted_with_tables = false;
      if constexpr (HashedGame<G>) {
        if (tables_ != nullptr) {
          // The parent's stored best-move fingerprint fronts the TT move;
          // any stored entry carries it, regardless of depth coverage.
          std::uint16_t hint = 0;
          TtHit h;
          if (tt_ != nullptr && tt_->probe(recs[r].pos.tt_key(), h))
            hint = h.move_hint;
          sort_children_ordered(game_, kids, stats_, arena_->ordering,
                                *tables_, ply + 1, hint,
                                stable_insertion_sort);
          sorted_with_tables = true;
        }
      }
      if (!sorted_with_tables)
        sort_children_by_static_value(game_, kids, stats_, arena_->ordering,
                                      stable_insertion_sort);
    }
    // Warm the table lines of the whole sibling set now: by the time
    // er/eval_first descends into each child and probes it, its slot is in
    // cache.  (The probe-site prefetch in tt_probe fires too late to hide
    // any latency — it is immediately followed by the load.)
    if constexpr (HashedGame<G>) {
      if (tt_ != nullptr)
        for (const auto& k : kids) tt_->prefetch(k.tt_key());
    }
    const auto first = static_cast<std::uint32_t>(recs.size());
    for (auto& k : kids) recs.emplace_back(std::move(k));
    recs[r].first = first;
    recs[r].count = static_cast<std::uint32_t>(kids.size());
    return false;
  }

  // --- shared-table plumbing (no-ops without a table / non-hashed game) ---

  /// Probe the shared table for `p`; true only when the entry validates and
  /// covers the remaining depth.
  bool tt_probe(const Record& p, int remaining, TtHit& out) {
    if constexpr (HashedGame<G>) {
      if (tt_ == nullptr) return false;
      const std::uint64_t key = p.pos.tt_key();
      tt_->prefetch(key);
      ++stats_.tt_probes;
      if (tt_->probe(key, out) && out.depth >= remaining) {
        ++stats_.tt_hits;
        return true;
      }
    }
    return false;
  }

  /// Store a completed fail-hard result for `p`, classified against the
  /// window it was searched with; `best_key` is the key of the child that
  /// produced the value (0 = none), stored as the entry's move hint except
  /// on fail-lows, where no single move is responsible.
  void tt_store(const Record& p, Value v, int remaining, Value alpha,
                Value beta, std::uint64_t best_key = 0) {
    if constexpr (HashedGame<G>) {
      if (tt_ == nullptr) return;
      const std::uint16_t hint =
          v > alpha && best_key != 0 ? move_fingerprint(best_key) : 0;
      tt_->store(p.pos.tt_key(), v, remaining, classify_bound(v, alpha, beta),
                 hint);
      ++stats_.tt_stores;
    }
  }

  /// Credit the child that refuted its parent (a beta cutoff) to the shared
  /// ordering tables: a killer slot at the child's ply and history credit
  /// scaled by the parent's remaining depth.
  void note_cutoff(const Record& child, int child_ply, int remaining) {
    if constexpr (HashedGame<G>) {
      if (tables_ == nullptr) return;
      const std::uint64_t key = child.pos.tt_key();
      tables_->killers.record(child_ply, key);
      const auto r =
          static_cast<std::uint32_t>(remaining < 0 ? 0 : remaining);
      tables_->history.add(key, r * r + 1);
    } else {
      (void)child; (void)child_ply; (void)remaining;
    }
  }

  /// Figure 8, function ER — a *full* fail-hard evaluation of record p
  /// within (alpha, beta) — wrapped with shared-table probe and store.
  Value er(std::uint32_t p, Value alpha, Value beta, int ply) {
    const int remaining = depth_ - ply;
    TtHit h;
    if (tt_probe(records()[p], remaining, h)) {
      switch (h.bound) {
        case BoundKind::kExact:
          return h.value;
        case BoundKind::kLower:
          if (h.value >= beta) return h.value;
          if (h.value > alpha) alpha = h.value;
          break;
        case BoundKind::kUpper:
          if (h.value <= alpha) return h.value;
          if (h.value < beta) beta = h.value;
          break;
      }
    }
    if (expand(p, ply, /*is_e_node=*/true)) {
      const Record& r = records()[p];
      const Value v = game_.evaluate(r.pos);
      tt_store(r, v, remaining, -kValueInf, kValueInf);  // terminal: exact
      return v;
    }
    const Value v = er_children(p, alpha, beta, ply);
    tt_store(records()[p], v, remaining, alpha, beta, best_child_key_);
    return v;
  }

  /// The record's position key, 0 for non-hashed games.
  [[nodiscard]] static std::uint64_t key_of(const Record& r) noexcept {
    if constexpr (HashedGame<G>)
      return r.pos.tt_key();
    else
      return 0;
  }

  /// ER's two phases over an expanded interior node.  Sets best_child_key_
  /// (read by the caller immediately on return — recursion below reuses it)
  /// to the child that produced the final value, for the TT move hint.
  Value er_children(std::uint32_t p, Value alpha, Value beta, int ply) {
    auto& recs = records();
    const std::uint32_t first = recs[p].first;
    const std::uint32_t last = first + recs[p].count;
    std::uint64_t best_key = 0;
    Value value = alpha;
    // Phase 1: evaluate every child's first child (the elder grandchildren).
    for (std::uint32_t c = first; c < last; ++c) {
      const Value t = negate(eval_first(c, negate(beta), negate(value), ply + 1));
      const Record& cr = recs[c];
      if (cr.done) {
        if (t > value) {
          value = t;
          best_key = key_of(cr);
          if (ply == root_ply_) best_root_ = cr.pos;
        }
        if (value >= beta) {
          note_cutoff(cr, ply + 1, depth_ - ply);
          recs[p].value = value;
          best_child_key_ = best_key;
          return value;
        }
      }
    }
    // Phase 2: sort by tentative value (ascending: lowest child value is the
    // most promising e-child) and finish the unfinished children in order.
    // Moving a record leaves its children where they are: `first` indexes
    // them absolutely.
    stable_insertion_sort(
        recs.begin() + first, recs.begin() + last,
        [](const Record& a, const Record& b) { return a.value < b.value; });
    for (std::uint32_t c = first; c < last; ++c) {
      if (recs[c].done) continue;
      const Value t = negate(refute_rest(c, negate(beta), negate(value), ply + 1));
      const Record& cr = recs[c];
      if (t > value) {
        value = t;
        best_key = key_of(cr);
        if (ply == root_ply_) best_root_ = cr.pos;
      }
      if (value >= beta) {
        note_cutoff(cr, ply + 1, depth_ - ply);
        break;
      }
    }
    recs[p].value = value;
    best_child_key_ = best_key;
    return value;
  }

  /// Figure 8, function Eval_first: give `p` a tentative value by fully
  /// evaluating (with ER) its first child.  A table hit resolves the node
  /// only when *conclusive* — exact, or a bound that already decides the
  /// window — because Eval_first's normal product is a tentative value and
  /// an inconclusive bound cannot substitute for one.
  Value eval_first(std::uint32_t p, Value alpha, Value beta, int ply) {
    auto& recs = records();
    TtHit h;
    if (tt_probe(recs[p], depth_ - ply, h)) {
      const bool conclusive =
          h.bound == BoundKind::kExact ||
          (h.bound == BoundKind::kLower && h.value >= beta) ||
          (h.bound == BoundKind::kUpper && h.value <= alpha);
      if (conclusive) {
        recs[p].value = h.value;
        recs[p].done = true;
        return h.value;
      }
    }
    if (expand(p, ply, /*is_e_node=*/false)) {
      Record& r = recs[p];
      r.done = true;
      r.value = game_.evaluate(r.pos);
      tt_store(r, r.value, depth_ - ply, -kValueInf, kValueInf);
      return r.value;
    }
    const std::uint32_t front = recs[p].first;
    const std::size_t mark = recs.size();
    Value value = alpha;
    const Value t = negate(er(front, negate(beta), negate(value), ply + 1));
    release(mark);  // the first child's value is final
    if (t > value) value = t;
    Record& r = recs[p];
    r.value = value;
    r.done = value >= beta || r.count == 1;
    if (value >= beta) note_cutoff(recs[front], ply + 1, depth_ - ply);
    return value;
  }

  /// Figure 8, function Refute_rest, wrapped with a shared-table store:
  /// Refute_rest *completes* a node, so its fail-hard result is a storable
  /// bound against the window it finished under.  (No probe here beyond the
  /// conclusive check: the node was already probed by er/eval_first, but a
  /// concurrent worker may have finished it in the meantime.)
  Value refute_rest(std::uint32_t p, Value alpha, Value beta, int ply) {
    const int remaining = depth_ - ply;
    TtHit h;
    if (tt_probe(records()[p], remaining, h)) {
      if (h.bound == BoundKind::kExact ||
          (h.bound == BoundKind::kLower && h.value >= beta) ||
          (h.bound == BoundKind::kUpper && h.value <= alpha))
        return h.value;
    }
    const Value v = refute_rest_children(p, alpha, beta, ply);
    tt_store(records()[p], v, remaining, alpha, beta, best_child_key_);
    return v;
  }

  /// Figure 8, function Refute_rest: examine p's remaining children until p
  /// is refuted (value >= beta) or exhausted.  Each finished child releases
  /// the records its search appended.
  Value refute_rest_children(std::uint32_t p, Value alpha, Value beta,
                             int ply) {
    auto& recs = records();
    ERS_DCHECK(recs[p].expanded && recs[p].count > 0);
    const std::uint32_t first = recs[p].first;
    const std::uint32_t last = first + recs[p].count;
    // The tentative value (if it survives max against alpha) came from the
    // first child, making it the hint candidate until a later child raises.
    std::uint64_t best_key = recs[p].value > alpha ? key_of(recs[first]) : 0;
    // Keep the tentative value from Eval_first (see header comment).
    Value value = std::max(recs[p].value, alpha);
    // The parent's bound may have tightened since Eval_first ran; the
    // tentative value alone can already refute p.
    if (value >= beta) {
      note_cutoff(recs[first], ply + 1, depth_ - ply);
      recs[p].value = value;
      best_child_key_ = best_key;
      return value;
    }
    for (std::uint32_t c = first + 1; c < last; ++c) {
      const std::size_t mark = recs.size();
      Value t = negate(eval_first(c, negate(beta), negate(value), ply + 1));
      if (!recs[c].done)
        t = negate(refute_rest(c, negate(beta), negate(value), ply + 1));
      release(mark);
      if (t > value) {
        value = t;
        best_key = key_of(recs[c]);
      }
      if (value >= beta) {
        note_cutoff(recs[c], ply + 1, depth_ - ply);
        break;
      }
    }
    recs[p].value = value;
    best_child_key_ = best_key;
    return value;
  }

  const G& game_;
  int depth_;
  OrderingPolicy ordering_;
  ConcurrentTranspositionTable* tt_ = nullptr;
  OrderingTables* tables_ = nullptr;
  ErSerialArena<G> own_arena_;  ///< one-shot searches: lives with the searcher
  ErSerialArena<G>* arena_ = &own_arena_;
  SearchStats stats_;
  std::optional<typename G::Position> best_root_;
  int root_ply_ = 0;
  /// Key of the child that produced the last er_children /
  /// refute_rest_children result — valid only immediately after those
  /// calls return (deeper recursion overwrites it), which is exactly when
  /// er/refute_rest read it for the TT move hint.
  std::uint64_t best_child_key_ = 0;
};

template <Game G>
[[nodiscard]] SearchResult er_serial_search(const G& game, int depth,
                                            OrderingPolicy ordering = {}) {
  return ErSerialSearcher<G>(game, depth, ordering).run();
}

}  // namespace ers
