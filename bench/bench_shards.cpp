// Sharded problem heap + work stealing on the real thread runtime (the
// paper's §8 proposal — "distribute the work to reduce processor
// interaction" — implemented as PR 3's tentpole).
//
// Sweeps heap shards {1, 2, 4, 8} × threads {1, 2, 4, 8} × scheduler batch
// {1, 4} over the Othello midgame suite (O1–O3) and the random trees
// (R1, R3), measuring with the executor's own SchedulerStats:
//   * units/sec          — scheduler throughput (wall clock, --reps runs)
//   * lock-wait share    — fraction of worker-time blocked on shard locks
//   * lock-hold share    — fraction of worker-time inside lock sections
//   * peer               — combine records a concurrent combiner applied
//   * steals (hit/try)   — work moved between per-worker run queues
//   * defer              — contended commit flushes deferred by try_lock
//   * global refills     — refills that fell through an empty home shard
//   * nodes              — total nodes generated (speculative loss control)
// Correctness bar, checked on every run: identical root value to serial
// alpha-beta at every (shards, threads, batch) point; shards = 1 runs the
// seed's single-heap scheduler verbatim.
//
// Emits BENCH_shards.json (same stamp schema as BENCH_scheduler.json: one
// flat object per row).  The headline comparison — 8-thread mean lock-wait
// share per shard count, against the batched single-heap baseline — is
// printed at the end and recorded in EXPERIMENTS.md.

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common.hpp"
#include "core/parallel_er.hpp"
#include "search/alpha_beta.hpp"

namespace {

struct ShardRun {
  ers::Value value = 0;
  std::uint64_t nodes = 0;       ///< mean over reps
  std::uint64_t units = 0;       ///< mean over reps
  double units_per_sec = 0.0;    ///< mean over reps
  double lock_wait_share = 0.0;  ///< mean over reps
  double lock_hold_share = 0.0;  ///< mean over reps
  std::uint64_t combine_peer_applied = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_hits = 0;
  std::uint64_t flush_deferrals = 0;
  std::uint64_t global_refills = 0;
};

template <typename G>
ShardRun run_config(const G& game, const ers::core::EngineConfig& cfg,
                    int threads, int batch, int reps, ers::Value oracle,
                    ers::obs::TraceSession* trace,
                    ers::obs::MetricsRegistry* reg) {
  using namespace ers;
  ShardRun sum;
  for (int rep = 0; rep < reps; ++rep) {
    // Trace only the last rep into a fresh session; the sweep's last
    // configuration is what the exported file ends up holding.
    const bool traced = trace != nullptr && rep == reps - 1;
    if (traced) trace->clear();
    auto run_cfg = cfg;
    run_cfg.trace = traced ? trace : nullptr;
    core::Engine<G> engine(game, run_cfg);
    runtime::ThreadExecutor<core::Engine<G>> exec(threads);
    exec.with_batch_size(batch).with_trace(traced ? trace : nullptr);
    const auto report = exec.run(engine);
    // The last rep's report feeds the metrics snapshot, traced or not: the
    // thread report and lock counters accrue without a trace session.
    if (reg != nullptr && rep == reps - 1) {
      obs::register_thread_report(*reg, report);
      obs::register_engine_lock_stats(*reg, engine.lock_stats());
    }
    ERS_CHECK(engine.root_value() == oracle &&
              "sharded scheduler changed the search result");
    sum.value = engine.root_value();
    sum.nodes += engine.stats().search.nodes_generated();
    sum.units += report.units;
    sum.units_per_sec += report.elapsed_ns == 0
                             ? 0.0
                             : static_cast<double>(report.units) * 1e9 /
                                   static_cast<double>(report.elapsed_ns);
    sum.lock_wait_share += report.lock_wait_share();
    sum.lock_hold_share += report.lock_hold_share();
    sum.combine_peer_applied += report.combine_peer_applied;
    sum.steal_attempts += report.sched.steal_attempts;
    sum.steal_hits += report.sched.steal_hits;
    sum.flush_deferrals += report.sched.flush_deferrals;
    sum.global_refills += report.sched.global_refills;
  }
  const auto n = static_cast<std::uint64_t>(reps);
  sum.nodes /= n;
  sum.units /= n;
  sum.units_per_sec /= static_cast<double>(reps);
  sum.lock_wait_share /= static_cast<double>(reps);
  sum.lock_hold_share /= static_cast<double>(reps);
  sum.combine_peer_applied /= n;
  sum.steal_attempts /= n;
  sum.steal_hits /= n;
  sum.flush_deferrals /= n;
  sum.global_refills /= n;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ers;
  auto opt = bench::parse_options(argc, argv, {"O1", "O2", "O3", "R1", "R3"});
  bench::print_header("Sharded problem heap + work stealing (thread runtime)");
  std::printf("reps per configuration: %d\n\n", opt.reps);

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "shards");
  TextTable table({"tree", "shards", "threads", "batch", "units/s",
                   "wait share", "hold share", "peer", "steals", "defer",
                   "refill", "nodes", "value"});
  std::vector<std::string> json;
  // 8-thread mean lock-wait and lock-hold share per (shards, batch): the
  // contention headlines the shard sweep and the per-shard locking engine
  // exist to move.
  struct Share {
    double wait = 0.0;
    double hold = 0.0;
    int n = 0;
  };
  std::map<std::pair<int, int>, Share> t8;
  for (const auto& name : opt.tree_names) {
    auto base = harness::tree_by_name(name, opt.scale);
    if (opt.frontier >= 0) base.engine.publish_frontier = opt.frontier;
    const Value oracle = std::visit(
        [&](const auto& game) {
          return alpha_beta_search(game, base.engine.search_depth,
                                   base.engine.ordering)
              .value;
        },
        base.game);
    for (const int shards : {1, 2, 4, 8}) {
      base.engine.heap_shards = shards;
      for (const int threads : {1, 2, 4, 8}) {
        for (const int batch : {1, 4}) {
          const ShardRun r = std::visit(
              [&](const auto& game) {
                return run_config(game, base.engine, threads, batch, opt.reps,
                                  oracle, trace, &reg);
              },
              base.game);
          reg.set("tree", base.name);
          reg.set("run.batch", batch);
          if (threads == 8) {
            Share& acc = t8[{shards, batch}];
            acc.wait += r.lock_wait_share;
            acc.hold += r.lock_hold_share;
            ++acc.n;
          }
          table.add_row(
              {base.name, std::to_string(shards), std::to_string(threads),
               std::to_string(batch), TextTable::num(r.units_per_sec, 0),
               TextTable::num(r.lock_wait_share, 4),
               TextTable::num(r.lock_hold_share, 4),
               std::to_string(r.combine_peer_applied),
               std::to_string(r.steal_hits) + "/" +
                   std::to_string(r.steal_attempts),
               std::to_string(r.flush_deferrals),
               std::to_string(r.global_refills), std::to_string(r.nodes),
               std::to_string(r.value)});
          json.push_back(bench::JsonObject()
                             .field("tree", base.name)
                             .field("shards", shards)
                             .field("threads", threads)
                             .field("batch", batch)
                             .field("units", r.units)
                             .field("units_per_sec", r.units_per_sec)
                             .field("lock_wait_share", r.lock_wait_share)
                             .field("lock_hold_share", r.lock_hold_share)
                             .field("combine_peer_applied",
                                    r.combine_peer_applied)
                             .field("steal_attempts", r.steal_attempts)
                             .field("steal_hits", r.steal_hits)
                             .field("flush_deferrals", r.flush_deferrals)
                             .field("global_refills", r.global_refills)
                             .field("nodes", r.nodes)
                             .field("value", static_cast<int>(r.value))
                             .str());
        }
      }
    }
  }
  table.print();
  std::printf("\nmean lock shares at 8 threads (wait / hold):\n");
  for (const auto& [key, acc] : t8) {
    const double n = acc.n > 0 ? static_cast<double>(acc.n) : 1.0;
    std::printf("  shards=%d batch=%d: %.4f / %.4f\n", key.first, key.second,
                acc.wait / n, acc.hold / n);
  }
  bench::write_bench_json("shards", opt.reps, json, opt.json_out);
  bench::write_observability(opt, trace, reg, "shards");
  return 0;
}
