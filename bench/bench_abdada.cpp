// ER vs ABDADA head-to-head on the thread runtime (ISSUE 7 tentpole): the
// paper's ER engine and the shared-TT ABDADA runner search the *same*
// positions with the *same* evaluator, sweeping threads {1, 2, 4, 8} over
// the Othello midgame suite (O1-O3) and the random trees (R1, R3).
//
// Per (tree, algo, threads) row, meaned over --reps runs:
//   * nodes            — total nodes generated across all workers
//   * nodes/sec        — wall-clock throughput (host-dependent; on a 1-core
//                        container speedups are <= 1, node counts are the
//                        portable quantity)
//   * tt probes/hits   — shared-table traffic (ABDADA only; ER's engine
//                        routes TT use through its own serial searcher)
//   * deferred/revisit — ABDADA's two-phase exclusivity accounting
//   * researches       — aspiration window re-searches over all depths
//   * thread node skew — min/max per-worker node counts (duplication spread)
// Correctness bar, checked on every run: identical root value to serial
// alpha-beta at the same depth for both algorithms at every thread count
// (ABDADA's depth-exact TT gating makes this hold by construction).
//
// Emits BENCH_abdada.json (one flat object per row; the CI bench guard
// diffs nodes_per_sec per (tree, algo, threads) group).

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "baselines/abdada_par.hpp"
#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"

namespace {

struct AlgoRun {
  ers::Value value = 0;
  std::uint64_t nodes = 0;  ///< mean over reps
  double nodes_per_sec = 0.0;
  std::uint64_t elapsed_ns = 0;
  std::uint64_t tt_probes = 0;
  std::uint64_t tt_hits = 0;
  double tt_hit_rate = 0.0;
  std::uint64_t deferred = 0;
  std::uint64_t revisited = 0;
  std::uint64_t researches = 0;
  std::uint64_t thread_nodes_min = 0;
  std::uint64_t thread_nodes_max = 0;
};

void finish_means(AlgoRun& sum, int reps) {
  const auto n = static_cast<std::uint64_t>(reps);
  sum.nodes /= n;
  sum.nodes_per_sec /= static_cast<double>(reps);
  sum.elapsed_ns /= n;
  sum.tt_probes /= n;
  sum.tt_hits /= n;
  sum.tt_hit_rate /= static_cast<double>(reps);
  sum.deferred /= n;
  sum.revisited /= n;
  sum.researches /= n;
  sum.thread_nodes_min /= n;
  sum.thread_nodes_max /= n;
}

/// The incumbent: the paper's ER engine on the thread runtime.
template <typename G>
AlgoRun run_er(const G& game, const ers::core::EngineConfig& cfg, int threads,
               int reps, ers::Value oracle) {
  using namespace ers;
  AlgoRun sum;
  for (int rep = 0; rep < reps; ++rep) {
    core::Engine<G> engine(game, cfg);
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    const auto report = exec.run(engine);
    ERS_CHECK(engine.root_value() == oracle &&
              "ER changed the search result");
    const auto& s = engine.stats().search;
    sum.value = engine.root_value();
    sum.nodes += s.nodes_generated();
    sum.elapsed_ns += report.elapsed_ns;
    sum.nodes_per_sec +=
        report.elapsed_ns == 0
            ? 0.0
            : static_cast<double>(s.nodes_generated()) * 1e9 /
                  static_cast<double>(report.elapsed_ns);
    sum.tt_probes += s.tt_probes;
    sum.tt_hits += s.tt_hits;
    sum.tt_hit_rate += s.tt_hit_rate();
  }
  finish_means(sum, reps);
  return sum;
}

/// The rival: shared-TT ABDADA, iterative deepening to the same depth.
template <typename G>
AlgoRun run_abdada(const G& game, const ers::core::EngineConfig& cfg,
                   int threads, int reps, ers::Value oracle,
                   ers::obs::TraceSession* trace,
                   ers::obs::MetricsRegistry* reg) {
  using namespace ers;
  AlgoRun sum;
  for (int rep = 0; rep < reps; ++rep) {
    const bool traced = trace != nullptr && rep == reps - 1;
    if (traced) trace->clear();
    baselines::AbdadaOptions opt;
    opt.threads = threads;
    opt.ordering = cfg.ordering;
    opt.trace = traced ? trace : nullptr;
    const auto r =
        baselines::abdada_parallel_search(game, cfg.search_depth, opt);
    ERS_CHECK(r.value == oracle && "ABDADA diverged from serial alpha-beta");
    if (traced && reg != nullptr)
      obs::register_search_stats(*reg, r.stats, "abdada.");
    std::uint64_t lo = r.per_thread.empty() ? 0 : ~std::uint64_t{0};
    std::uint64_t hi = 0;
    for (const auto& t : r.per_thread) {
      lo = std::min(lo, t.nodes_generated());
      hi = std::max(hi, t.nodes_generated());
    }
    sum.value = r.value;
    sum.nodes += r.stats.nodes_generated();
    sum.elapsed_ns += r.elapsed_ns;
    sum.nodes_per_sec +=
        r.elapsed_ns == 0
            ? 0.0
            : static_cast<double>(r.stats.nodes_generated()) * 1e9 /
                  static_cast<double>(r.elapsed_ns);
    sum.tt_probes += r.stats.tt_probes;
    sum.tt_hits += r.stats.tt_hits;
    sum.tt_hit_rate += r.stats.tt_hit_rate();
    sum.deferred += r.stats.moves_deferred;
    sum.revisited += r.stats.moves_revisited;
    sum.researches += static_cast<std::uint64_t>(r.researches);
    sum.thread_nodes_min += lo;
    sum.thread_nodes_max += hi;
  }
  finish_means(sum, reps);
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  auto opt = bench::parse_options(argc, argv, {"O1", "O2", "O3", "R1", "R3"});
  bench::print_header("ER vs ABDADA on identical positions (thread runtime)");
  std::printf("reps per configuration: %d\n\n", opt.reps);

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "abdada");
  TextTable table({"tree", "algo", "threads", "nodes", "nodes/s", "tt hits",
                   "hit rate", "defer", "revisit", "re-search",
                   "thr nodes min/max", "value"});
  std::vector<std::string> json;
  for (const auto& name : opt.tree_names) {
    const auto base = harness::tree_by_name(name, opt.scale);
    const Value oracle = std::visit(
        [&](const auto& game) {
          return alpha_beta_search(game, base.engine.search_depth,
                                   base.engine.ordering)
              .value;
        },
        base.game);
    for (const int threads : {1, 2, 4, 8}) {
      for (const char* algo : {"er", "abdada"}) {
        const bool is_er = std::string(algo) == "er";
        const AlgoRun r = std::visit(
            [&](const auto& game) {
              return is_er ? run_er(game, base.engine, threads, opt.reps,
                                    oracle)
                           : run_abdada(game, base.engine, threads, opt.reps,
                                        oracle, trace, &reg);
            },
            base.game);
        reg.set("tree", base.name);
        table.add_row(
            {base.name, algo, std::to_string(threads),
             std::to_string(r.nodes), TextTable::num(r.nodes_per_sec, 0),
             std::to_string(r.tt_hits) + "/" + std::to_string(r.tt_probes),
             TextTable::num(r.tt_hit_rate, 3), std::to_string(r.deferred),
             std::to_string(r.revisited), std::to_string(r.researches),
             std::to_string(r.thread_nodes_min) + "/" +
                 std::to_string(r.thread_nodes_max),
             std::to_string(r.value)});
        json.push_back(bench::JsonObject()
                           .field("tree", base.name)
                           .field("algo", algo)
                           .field("threads", threads)
                           .field("nodes", r.nodes)
                           .field("nodes_per_sec", r.nodes_per_sec)
                           .field("elapsed_ns", r.elapsed_ns)
                           .field("tt_probes", r.tt_probes)
                           .field("tt_hits", r.tt_hits)
                           .field("tt_hit_rate", r.tt_hit_rate)
                           .field("deferred", r.deferred)
                           .field("revisited", r.revisited)
                           .field("researches", r.researches)
                           .field("thread_nodes_min", r.thread_nodes_min)
                           .field("thread_nodes_max", r.thread_nodes_max)
                           .field("value", static_cast<int>(r.value))
                           .str());
      }
    }
  }
  table.print();
  bench::write_bench_json("abdada", opt.reps, json, opt.json_out);
  bench::write_observability(opt, trace, reg, "abdada");
  return 0;
}
