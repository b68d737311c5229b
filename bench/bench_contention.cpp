// Problem-heap contention (paper §6): "as more processors are added, the
// problem heap becomes a bottleneck".  The simulator serializes every heap
// access on the one heap lock, so its lock-wait share is the interference
// loss; the sweep runs the paper's serial depth and a contention-bound
// regime two plies deeper (many small units) at 4, 8 and 16 processors.
//
// Second section (shared search knowledge, also beyond the paper): the
// lock-free transposition table compared across three modes on the Othello
// midgame suite with real threads —
//     none       no table (the paper's setup: workers share only the heap)
//     shared     one ConcurrentTranspositionTable probed by every worker
//     perthread  a private table per worker (same total probes, no sharing)
// The interesting number is total nodes: a shared table lets one worker's
// finished subtree cut off another's, so its node count should undercut
// both controls as threads grow.  OS scheduling makes any single threaded
// run noisy, so each configuration is averaged over --reps runs (default 5).
// Emits BENCH_ttable.json.

#include <memory>
#include <thread>
#include <variant>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/concurrent_ttable.hpp"

namespace {

struct TtRun {
  ers::Value value = 0;
  std::uint64_t nodes = 0;
  std::uint64_t units = 0;
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
};

template <typename G>
TtRun run_tt_mode(const G& game, ers::core::EngineConfig cfg, int threads,
                  const std::string& mode, int table_log2, int reps) {
  using namespace ers;
  TtRun sum;
  for (int rep = 0; rep < reps; ++rep) {
    // Fresh table each rep: this measures intra-search sharing, not warmth.
    std::unique_ptr<ConcurrentTranspositionTable> shared;
    if (mode == "shared") {
      shared = std::make_unique<ConcurrentTranspositionTable>(table_log2);
      cfg.shared_table = shared.get();
    } else {
      cfg.shared_table = nullptr;
    }
    core::Engine<G> engine(game, cfg);
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    if (mode == "perthread") exec.use_per_thread_tables(table_log2);
    const auto report = exec.run(engine);
    const auto& s = engine.stats().search;
    sum.value = engine.root_value();
    sum.nodes += s.nodes_generated();
    sum.units += report.units;
    sum.probes += s.tt_probes;
    sum.hits += s.tt_hits;
  }
  const auto n = static_cast<std::uint64_t>(reps);
  return TtRun{sum.value, sum.nodes / n, sum.units / n, sum.probes / n,
               sum.hits / n};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"R3"});
  bench::print_header("Problem-heap contention (paper section 6)");

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "contention");
  TextTable table({"tree", "serial depth", "procs", "speedup", "efficiency",
                   "lock share", "idle share"});
  std::vector<std::string> contention_json;
  for (const auto& name : opt.tree_names) {
    const auto base = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(base);
    // Two regimes: the paper's serial depth, and a contention-bound one two
    // plies deeper.
    for (const int sd :
         {base.engine.serial_depth,
          std::min(base.engine.search_depth, base.engine.serial_depth + 2)}) {
      auto cfg = base.engine;
      cfg.serial_depth = sd;
      for (const int p : {4, 8, 16}) {
        if (trace != nullptr) trace->clear();  // keep the last point only
        const auto metrics = std::visit(
            [&](const auto& game) {
              return parallel_er_sim(game, cfg, p, {}, 1, trace).metrics;
            },
            base.game);
        reg.set("tree", base.name);
        reg.set("serial_depth", sd);
        obs::register_sim_metrics(reg, metrics);
        const double speedup = static_cast<double>(serial.best_cost()) /
                               static_cast<double>(metrics.makespan);
        const double total = static_cast<double>(metrics.makespan) * p;
        table.add_row({base.name, std::to_string(sd), std::to_string(p),
                       TextTable::num(speedup, 2),
                       TextTable::num(speedup / p, 3),
                       TextTable::num(metrics.lock_wait_time / total, 3),
                       TextTable::num(metrics.idle_time / total, 3)});
        contention_json.push_back(
            bench::JsonObject()
                .field("tree", base.name)
                .field("serial_depth", sd)
                .field("procs", p)
                .field("nproc",
                       static_cast<int>(std::thread::hardware_concurrency()))
                .field("speedup", speedup)
                .field("lock_share", metrics.lock_wait_time / total)
                .field("idle_share", metrics.idle_time / total)
                .str());
      }
    }
  }
  table.print();
  // Deterministic simulated sweep: one rep is exact.
  bench::write_bench_json("contention", 1, contention_json);

  // --- shared transposition table on the Othello midgame suite ------------
  bench::print_header("Shared transposition table (thread runtime, O1-O3)");
  constexpr int kTableLog2 = 20;
  TextTable tt_table({"tree", "mode", "threads", "value", "nodes", "units",
                      "tt probes", "tt hit rate"});
  std::vector<std::string> tt_json;
  std::uint64_t nodes_none_4t = 0, nodes_shared_4t = 0;
  for (const auto& name : {std::string("O1"), std::string("O2"), std::string("O3")}) {
    const auto base = harness::tree_by_name(name, opt.scale);
    for (const char* mode : {"none", "shared", "perthread"}) {
      for (const int threads : {1, 2, 4, 8}) {
        const TtRun r = std::visit(
            [&](const auto& game) {
              return run_tt_mode(game, base.engine, threads, mode, kTableLog2,
                                 opt.reps);
            },
            base.game);
        if (threads == 4 && std::string(mode) == "none") nodes_none_4t += r.nodes;
        if (threads == 4 && std::string(mode) == "shared")
          nodes_shared_4t += r.nodes;
        const double hit_rate =
            r.probes == 0 ? 0.0
                          : static_cast<double>(r.hits) /
                                static_cast<double>(r.probes);
        tt_table.add_row({base.name, mode, std::to_string(threads),
                          std::to_string(r.value), std::to_string(r.nodes),
                          std::to_string(r.units), std::to_string(r.probes),
                          TextTable::num(hit_rate, 3)});
        tt_json.push_back(bench::JsonObject()
                              .field("tree", base.name)
                              .field("mode", mode)
                              .field("threads", threads)
                              .field("value", static_cast<int>(r.value))
                              .field("nodes", r.nodes)
                              .field("units", r.units)
                              .field("tt_probes", r.probes)
                              .field("tt_hits", r.hits)
                              .field("tt_hit_rate", hit_rate)
                              .str());
      }
    }
  }
  tt_table.print();
  std::printf("\nO1+O2+O3 nodes at 4 threads: none=%llu shared=%llu (%s)\n",
              static_cast<unsigned long long>(nodes_none_4t),
              static_cast<unsigned long long>(nodes_shared_4t),
              nodes_shared_4t < nodes_none_4t ? "shared table searches less"
                                              : "NO REDUCTION");
  bench::write_bench_json("ttable", opt.reps, tt_json);
  bench::write_observability(opt, trace, reg, "contention");
  return 0;
}
