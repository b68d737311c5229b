#pragma once
// Per-layer probes of the traced run.  Each probe times calls into one
// layer's public functions from outside, records a span around each call (or
// around each batch of calls, for the nanosecond kernels), and turns the
// measured times and counts into that layer's metrics.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/abdada_par.hpp"
#include "core/engine.hpp"
#include "core/parallel_er.hpp"
#include "harness/experiment.hpp"
#include "inputs.hpp"
#include "othello/game.hpp"
#include "randomtree/random_tree.hpp"
#include "search/alpha_beta.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/er_serial.hpp"
#include "search/nproc_table.hpp"
#include "spans.hpp"
#include "util/check.hpp"

namespace perfbench {

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Keeps the compiler from folding a timed call whose result is unused, and
/// from hoisting it out of a repeat loop.
template <typename T>
inline void keep(T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

inline double median(std::vector<double> v) {
  ERS_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  ERS_CHECK(!v.empty());
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Times `batches` runs of `body` (which makes `calls` library calls), one
/// span each, and returns the median ns per call.
template <typename F>
double ns_per_call(SpanLog& log, const char* name, int batches,
                   std::uint64_t calls, F&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    ScopedSpan span(&log, name);
    body();
    span.count(calls, 0);
    per_call.push_back(static_cast<double>(span.elapsed_ns()) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

// --- game kernels -----------------------------------------------------------

/// Othello legal-move generation, move application and static evaluation,
/// over every position up to two plies below `roots`.
inline void probe_othello_kernels(SpanLog& log, Metrics& m,
                                  const std::vector<OthelloPosition>& roots) {
  using namespace ers::othello;
  std::vector<Board> boards;
  for (const OthelloPosition& r : roots) {
    boards.push_back(r.board);
    for (Bitboard a = legal_moves(r.board); a != 0;) {
      const Board b1 = apply_move(r.board, pop_lsb(a));
      boards.push_back(b1);
      for (Bitboard c = legal_moves(b1); c != 0;)
        boards.push_back(apply_move(b1, pop_lsb(c)));
    }
  }
  std::vector<std::pair<Board, int>> moves;
  for (const Board& b : boards)
    for (Bitboard a = legal_moves(b); a != 0;) moves.emplace_back(b, pop_lsb(a));
  const OthelloGame game;
  constexpr int kReps = 20;
  const auto nb = static_cast<std::uint64_t>(boards.size()) * kReps;
  const auto nm = static_cast<std::uint64_t>(moves.size()) * kReps;

  m["othello.legal_moves_ns"] = {
      ns_per_call(log, "othello.legal_moves", 15, nb,
                  [&] {
                    for (int r = 0; r < kReps; ++r)
                      for (Board& b : boards) {
                        keep(b);
                        Bitboard x = legal_moves(b);
                        keep(x);
                      }
                  }),
      "ns"};
  m["othello.apply_ns"] = {
      ns_per_call(log, "othello.apply_move", 15, nm,
                  [&] {
                    for (int r = 0; r < kReps; ++r)
                      for (auto& [b, sq] : moves) {
                        keep(b);
                        Board x = apply_move(b, sq);
                        keep(x);
                      }
                  }),
      "ns"};
  std::vector<OthelloGame::Position> positions;
  for (const Board& b : boards) positions.push_back({b});
  m["othello.evaluate_ns"] = {
      ns_per_call(log, "othello.evaluate", 15, nb,
                  [&] {
                    for (int r = 0; r < kReps; ++r)
                      for (auto& p : positions) {
                        keep(p);
                        ers::Value x = game.evaluate(p);
                        keep(x);
                      }
                  }),
      "ns"};
}

/// Random-tree child generation and leaf evaluation on the top five plies of
/// an R1-shaped tree.
inline void probe_randomtree_kernels(SpanLog& log, Metrics& m,
                                     const ers::UniformRandomTree& tree) {
  using Pos = ers::UniformRandomTree::Position;
  std::vector<Pos> nodes{tree.root()};
  for (std::size_t i = 0; i < nodes.size() && nodes.size() < 1500; ++i) {
    const Pos p = nodes[i];  // generate_children may reallocate `nodes`
    tree.generate_children(p, nodes);
  }
  std::vector<Pos> kids;
  kids.reserve(64);
  constexpr int kReps = 100;
  const auto n = static_cast<std::uint64_t>(nodes.size()) * kReps;
  m["randomtree.children_ns"] = {
      ns_per_call(log, "randomtree.generate_children", 15, n,
                  [&] {
                    for (int r = 0; r < kReps; ++r)
                      for (Pos& p : nodes) {
                        keep(p);
                        kids.clear();
                        tree.generate_children(p, kids);
                        keep(kids);
                      }
                  }),
      "ns"};
  m["randomtree.evaluate_ns"] = {
      ns_per_call(log, "randomtree.evaluate", 15, n,
                  [&] {
                    for (int r = 0; r < kReps; ++r)
                      for (Pos& p : nodes) {
                        keep(p);
                        ers::Value x = tree.evaluate(p);
                        keep(x);
                      }
                  }),
      "ns"};
}

// --- search layer -----------------------------------------------------------

/// A game and its engine configuration: the input of the search, core and
/// runtime probes, for whichever game the workload searches.
template <ers::Game G>
struct ProbeTree {
  G game;
  ers::core::EngineConfig cfg;
};

/// Positions `ply` plies below the root, reached by random descents.
template <ers::Game G>
std::vector<typename G::Position> frontier(const G& game, int ply, int count,
                                           Rng& rng) {
  std::vector<typename G::Position> out;
  std::vector<typename G::Position> kids;
  for (int attempt = 0; static_cast<int>(out.size()) < count && attempt < 8 * count;
       ++attempt) {
    typename G::Position p = game.root();
    int d = 0;
    for (; d < ply; ++d) {
      kids.clear();
      game.generate_children(p, kids);
      if (kids.empty()) break;
      p = kids[rng.below(kids.size())];
    }
    if (d == ply) out.push_back(p);
  }
  return out;
}

/// Serial ER run from the serial-depth frontier as one unit, as the engine
/// runs its serial units (full window).
template <ers::Game G>
void probe_er_unit(SpanLog& log, Metrics& m,
                   const std::vector<ProbeTree<G>>& trees, Rng& rng) {
  std::vector<double> unit_us;
  std::vector<double> unit_nodes;
  for (const ProbeTree<G>& t : trees) {
    const int start = t.cfg.serial_depth;
    for (const auto& p : frontier(t.game, start, 12, rng)) {
      std::vector<double> us;
      std::uint64_t nodes = 0;
      for (int rep = 0; rep < 5; ++rep) {
        ScopedSpan span(&log, "search.er_unit");
        ers::ErSerialSearcher<G> s(t.game, t.cfg.search_depth, t.cfg.ordering);
        const ers::SearchResult r = s.run_from(p, start);
        nodes = r.stats.nodes_generated();
        span.count(1, nodes);
        us.push_back(static_cast<double>(span.elapsed_ns()) / 1e3);
      }
      unit_us.push_back(median(us));
      unit_nodes.push_back(static_cast<double>(nodes));
    }
  }
  m["search.er_unit_us"] = {mean(unit_us), "us"};
  m["search.er_unit_nodes"] = {mean(unit_nodes), "nodes"};
}

/// Transposition-table probe and store on a table of ABDADA's size, single
/// threaded and with three threads probing at once.
inline void probe_ttable(SpanLog& log, Metrics& m, std::uint64_t seed) {
  ers::ConcurrentTranspositionTable tt(ers::baselines::AbdadaOptions{}.table_log2);
  Rng rng(stream_seed(seed, 3));
  std::vector<std::uint64_t> keys(1 << 16);
  for (auto& k : keys) k = rng.next();
  const auto n = static_cast<std::uint64_t>(keys.size());
  m["search.tt_store_ns"] = {
      ns_per_call(log, "search.tt_store", 9, n,
                  [&] {
                    for (std::uint64_t& k : keys) {
                      keep(k);
                      tt.store(k, static_cast<ers::Value>(k & 0xfff),
                               static_cast<int>(k >> 60), ers::BoundKind::kExact);
                    }
                  }),
      "ns"};
  ers::TtHit hit;
  m["search.tt_probe_ns"] = {
      ns_per_call(log, "search.tt_probe", 9, n,
                  [&] {
                    for (std::uint64_t& k : keys) {
                      keep(k);
                      bool found = tt.probe(k, hit);
                      keep(found);
                    }
                  }),
      "ns"};

  constexpr int kThreads = 3;
  constexpr int kReps = 8;
  std::vector<std::uint64_t> start(kThreads), end(kThreads);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
      pool.emplace_back([&, t] {
        ers::TtHit h;
        start[static_cast<std::size_t>(t)] = now_ns();
        for (int r = 0; r < kReps; ++r)
          for (std::size_t i = static_cast<std::size_t>(t); i < keys.size();
               i += kThreads) {
            std::uint64_t k = keys[i];
            keep(k);
            bool found = tt.probe(k, h);
            keep(found);
          }
        end[static_cast<std::size_t>(t)] = now_ns();
      });
    for (auto& th : pool) th.join();
  }
  const std::uint64_t per_thread = n / kThreads * kReps;
  std::vector<double> ns;
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    log.add("search.tt_probe_3t", start[i], end[i], per_thread, 0);
    ns.push_back(static_cast<double>(end[i] - start[i]) /
                 static_cast<double>(per_thread));
  }
  m["search.tt_probe_ns_3t"] = {mean(ns), "ns"};
}

// --- ABDADA -----------------------------------------------------------------

/// ABDADA at 3 threads against 1 thread, alternated, plus the cost of the
/// tables one call allocates.
inline void probe_abdada(SpanLog& log, Metrics& m,
                         const std::vector<OthelloPosition>& positions) {
  using ers::baselines::AbdadaOptions;
  AbdadaOptions opt;
  opt.ordering.sort_by_static_value = true;
  opt.ordering.max_sort_ply = kOthelloMaxSortPly;
  double t1_sum = 0, t3_sum = 0;
  std::uint64_t probes = 0, hits = 0, deferred = 0, revisited = 0;
  double researches = 0, skew = 0;
  int searches = 0;
  for (const OthelloPosition& p : positions) {
    const ers::othello::OthelloGame game(p.board);
    const ers::Value expected =
        ers::alpha_beta_search(game, kOthelloDepth, opt.ordering).value;
    ERS_CHECK(!p.negamax_value || expected == *p.negamax_value);
    std::vector<double> t1, t3;
    for (int rep = 0; rep < 3; ++rep)
      for (const int threads : {3, 1}) {
        opt.threads = threads;
        ScopedSpan span(&log, "baselines.abdada_parallel_search");
        const auto r = ers::baselines::abdada_parallel_search(
            game, kOthelloDepth, opt);
        span.count(1, r.stats.nodes_generated());
        ERS_CHECK(r.value == expected);
        const double ms = static_cast<double>(span.elapsed_ns()) / 1e6;
        if (threads == 1) {
          t1.push_back(ms);
          continue;
        }
        t3.push_back(ms);
        probes += r.stats.tt_probes;
        hits += r.stats.tt_hits;
        deferred += r.stats.moves_deferred;
        revisited += r.stats.moves_revisited;
        researches += r.researches;
        double most = 0, total = 0;
        for (const auto& s : r.per_thread) {
          most = std::max(most, static_cast<double>(s.nodes_generated()));
          total += static_cast<double>(s.nodes_generated());
        }
        skew += most / (total / static_cast<double>(r.per_thread.size()));
        ++searches;
      }
    t1_sum += median(t1);
    t3_sum += median(t3);
  }
  const auto per = [&](double x) { return x / searches; };
  m["baselines.abdada_ms"] = {t3_sum / static_cast<double>(positions.size()),
                              "ms"};
  m["baselines.abdada_researches"] = {per(researches), "count"};
  m["baselines.abdada_thread_skew"] = {per(skew), "ratio"};
  m["baselines.abdada_scaling_3_vs_1"] = {t1_sum / t3_sum, "ratio"};
  m["search.abdada_tt_hit_rate"] = {
      static_cast<double>(hits) / static_cast<double>(probes), "ratio"};
  m["search.abdada_deferred"] = {per(static_cast<double>(deferred)), "count"};
  m["search.abdada_revisited"] = {per(static_cast<double>(revisited)), "count"};

  std::vector<double> setup;
  for (int rep = 0; rep < 15; ++rep) {
    ScopedSpan span(&log, "baselines.abdada_tables");
    {
      ers::ConcurrentTranspositionTable tt(opt.table_log2);
      ers::NprocTable nproc(opt.nproc_log2);
      keep(tt);
      keep(nproc);
    }
    setup.push_back(static_cast<double>(span.elapsed_ns()) / 1e6);
  }
  m["baselines.abdada_table_setup_ms"] = {median(setup), "ms"};
}

// --- engine, executor, simulator ---------------------------------------------

/// Time spent in each public engine call by one single-driver run.
struct DriveTimes {
  double acquire_ns = 0;
  double compute_ns = 0;
  double commit_ns = 0;
  std::uint64_t units = 0;
};

/// A pop-time cutoff can finish the root inside acquire(), so an empty
/// acquire is fine once the engine is done; with no unit in flight, anything
/// else is a stall.
template <ers::Game G>
bool acquired(const ers::core::Engine<G>& engine,
              const std::optional<ers::core::WorkItem>& item) {
  ERS_CHECK((item.has_value() || engine.done()) &&
            "single-driver engine stalled");
  return item.has_value();
}

/// Drives one engine to completion from this thread alone through the
/// public acquire/compute/commit protocol.
template <ers::Game G>
ers::Value drive(ers::core::Engine<G>& engine) {
  while (!engine.done()) {
    const auto item = engine.acquire();
    if (!acquired(engine, item)) break;
    engine.commit(*item, engine.compute(*item));
  }
  return engine.root_value();
}

/// drive(), with every call timed into `times` and a span in `log`.
template <ers::Game G>
ers::Value drive_timed(ers::core::Engine<G>& engine, SpanLog& log,
                       DriveTimes& times) {
  while (!engine.done()) {
    std::optional<ers::core::WorkItem> item;
    {
      ScopedSpan span(&log, "core.acquire");
      item = engine.acquire();
      times.acquire_ns += static_cast<double>(span.elapsed_ns());
    }
    if (!acquired(engine, item)) break;
    typename ers::core::Engine<G>::ComputeResult r;
    {
      ScopedSpan span(&log, "core.compute");
      r = engine.compute(*item);
      span.count(1, r.stats.nodes_generated());
      times.compute_ns += static_cast<double>(span.elapsed_ns());
    }
    {
      ScopedSpan span(&log, "core.commit");
      engine.commit(*item, std::move(r));
      times.commit_ns += static_cast<double>(span.elapsed_ns());
    }
    ++times.units;
  }
  return engine.root_value();
}

/// The engine alone: a single-threaded loop over acquire/compute/commit.
template <ers::Game G>
void probe_core(SpanLog& log, Metrics& m, const std::vector<ProbeTree<G>>& trees,
                const std::vector<ers::Value>& expected) {
  DriveTimes t;
  std::vector<double> drive_ms, bytes_per_node;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    ScopedSpan span(&log, "core.drive");
    ers::core::Engine<G> engine(trees[i].game, trees[i].cfg);
    ERS_CHECK(drive_timed(engine, log, t) == expected[i]);
    const ers::core::EngineStats st = engine.stats();
    span.count(st.units_processed, st.search.nodes_generated());
    drive_ms.push_back(static_cast<double>(span.elapsed_ns()) / 1e6);
    const ers::core::EngineMemStats mem = engine.mem_stats();
    bytes_per_node.push_back(static_cast<double>(mem.peak_bytes) /
                             static_cast<double>(mem.live_nodes));
  }
  const auto n = static_cast<double>(t.units);
  m["core.er_ms"] = {mean(drive_ms), "ms"};
  m["core.acquire_ns"] = {t.acquire_ns / n, "ns"};
  m["core.compute_us"] = {t.compute_ns / n / 1e3, "us"};
  m["core.commit_ns"] = {t.commit_ns / n, "ns"};
  m["core.bookkeeping_share"] = {
      (t.acquire_ns + t.commit_ns) / (t.acquire_ns + t.compute_ns + t.commit_ns),
      "ratio"};
  m["core.peak_bytes_per_node"] = {mean(bytes_per_node), "B"};
}

/// ThreadExecutor with one worker against the single-driver loop on the same
/// tree, alternated.
template <ers::Game G>
void probe_run_vs_driver(SpanLog& log, Metrics& m,
                         const std::vector<ProbeTree<G>>& trees,
                         const std::vector<ers::Value>& expected) {
  double run_sum = 0, driver_sum = 0;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    std::vector<double> run, driver;
    for (int rep = 0; rep < 3; ++rep) {
      {
        ScopedSpan span(&log, "runtime.parallel_er_threads");
        const auto r = ers::parallel_er_threads(trees[i].game, trees[i].cfg, 1);
        ERS_CHECK(r.value == expected[i]);
        span.count(1, r.engine.search.nodes_generated());
        run.push_back(static_cast<double>(span.elapsed_ns()));
      }
      ScopedSpan span(&log, "runtime.single_driver");
      ers::core::Engine<G> engine(trees[i].game, trees[i].cfg);
      ERS_CHECK(drive(engine) == expected[i]);
      span.count(1, engine.stats().search.nodes_generated());
      driver.push_back(static_cast<double>(span.elapsed_ns()));
    }
    run_sum += median(run);
    driver_sum += median(driver);
  }
  m["runtime.run_vs_driver"] = {run_sum / driver_sum, "ratio"};
}

/// Parallel ER on the simulator at `processors`, through the harness.  The
/// engine's unit counts come from here rather than from the single-driver
/// loop, since one processor never pops the speculative queue.
inline void probe_sim(SpanLog& log, Metrics& m,
                      const std::vector<ers::harness::ExperimentTree>& trees,
                      const std::vector<ers::harness::SerialBaseline>& serial,
                      int processors) {
  std::vector<double> ms, makespan, heap, units, spec, cancelled;
  double ns = 0, nodes = 0, idle = 0, capacity = 0;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    ScopedSpan span(&log, "harness.run_parallel_point");
    const ers::harness::ParallelPoint p =
        ers::harness::run_parallel_point(trees[i], processors, serial[i]);
    span.count(1, p.nodes_generated);
    const auto elapsed = static_cast<double>(span.elapsed_ns());
    ms.push_back(elapsed / 1e6);
    ns += elapsed;
    nodes += static_cast<double>(p.nodes_generated);
    makespan.push_back(static_cast<double>(p.makespan));
    heap.push_back(static_cast<double>(p.metrics.heap_accesses));
    units.push_back(static_cast<double>(p.engine.units_processed));
    spec.push_back(static_cast<double>(p.engine.promotions_speculative));
    cancelled.push_back(static_cast<double>(p.waste.total_units()));
    idle += static_cast<double>(p.metrics.idle_time);
    capacity += static_cast<double>(p.makespan) * processors;
  }
  m["sim.ms"] = {mean(ms), "ms"};
  m["sim.ns_per_node"] = {ns / nodes, "ns"};
  m["sim.makespan"] = {mean(makespan), "cost"};
  m["sim.idle_share"] = {idle / capacity, "ratio"};
  m["sim.heap_accesses"] = {mean(heap), "count"};
  m["core.units"] = {mean(units), "count"};
  m["core.spec_units"] = {mean(spec), "count"};
  m["core.cancelled_units"] = {mean(cancelled), "count"};
}

}  // namespace perfbench
