#pragma once
// Shared-memory runtime: real std::thread workers driving the problem-heap
// engine (the counterpart of the paper's Sequent implementation).
//
// The engine is internally synchronized — one problem heap behind one
// mutex (DESIGN.md §10) — so this executor holds no engine-wrapping lock of
// its own.  What remains up here is the worker loop and a small wake mutex
// that exists only to park starving workers on a condition variable without
// lost wakeups.  The heavy compute phase — child generation and serial
// subtree searches — runs with no lock of any kind held, which is where the
// real parallelism lives.
//
// Batched scheduling (paper §6's contention remedy): each worker keeps a
// small local run buffer filled by one acquire_batch call and a local
// completion buffer flushed through one commit_batch call, so the engine's
// serialized sections are entered once per batch instead of twice per unit.
// Wakeups are targeted: a worker that acquires work wakes only as many
// sleepers as there are units actually left on the queues (no notify_all
// thundering herd), and a starving worker yields briefly before sleeping so
// it can catch work released a few microseconds later without a futex round
// trip.  Every worker keeps a SchedulerStats block; the engine's own lock
// accounting (EngineLockStats) is folded into the aggregate after the join,
// so contention is measurable, not guessed (bench_scheduler consumes
// exactly these counters).
//
// Liveness: the engine itself decides whether a failed acquire is a stall
// (Engine::stalled — nothing ready, no unit outstanding, search not done,
// all checked in one critical section).  The executor only reports it.
//
// Transposition tables: the engine's EngineConfig::shared_table (one
// lock-free table, every worker probes/stores it) is the production setup.
// use_per_thread_tables() is the bench control: each worker gets a private
// table of the same size, isolating the benefit of *sharing* knowledge from
// the benefit of merely *having* a table.  The run report carries the
// aggregate probe/hit counters either way.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "search/concurrent_ttable.hpp"
#include "util/check.hpp"

namespace ers::runtime {

/// Per-worker scheduler observability, merged across workers into the run
/// report.  Times come from steady_clock; on a loaded machine lock_wait_ns
/// includes preemption of the lock holder, which is precisely the
/// interference a real shared heap suffers.
struct SchedulerStats {
  /// Engine lock sections.  Workers hold no executor-side engine mutex, so
  /// these three stay zero in the per-worker blocks and are populated by
  /// folding the engine's own EngineLockStats into the aggregate after the
  /// join (run() does this; benches read the totals).
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_wait_ns = 0;  ///< blocked entering a serialized section
  std::uint64_t lock_hold_ns = 0;  ///< inside a serialized section
  /// Time inside the compute phase (the busy timeline).  Measured — from
  /// the same clock readings the trace spans use, so the two totals agree
  /// exactly — only while a trace session is attached; 0 otherwise, keeping
  /// the untraced hot path free of per-unit clock reads.
  std::uint64_t compute_ns = 0;
  std::uint64_t units = 0;         ///< work units computed and committed
  std::uint64_t batches = 0;       ///< non-empty acquire_batch calls
  std::uint64_t wakeups_issued = 0;  ///< targeted notify_one calls
  std::uint64_t sleeps = 0;          ///< times a worker parked on the cv

  /// Distribution views (obs/histogram.hpp), per-worker single-writer and
  /// merged exactly like the scalar counters.  batch_hist records every
  /// acquired batch's size (its count equals `batches`).  compute_hist
  /// records per-unit compute-span ns and commit_hist per-flush commit
  /// latency ns — both filled only while a trace session is attached, from
  /// the same clock readings the spans and compute_ns use, keeping the
  /// untraced hot path free of per-unit clock reads.
  obs::Histogram batch_hist;
  obs::Histogram compute_hist;
  obs::Histogram commit_hist;

  void record_batch(std::size_t size) {
    ++batches;
    batch_hist.record(size);
  }

  /// The one way per-worker blocks fold into an aggregate (the executor and
  /// every bench go through here, never field-by-field addition).
  void merge(const SchedulerStats& o) {
    lock_acquisitions += o.lock_acquisitions;
    lock_wait_ns += o.lock_wait_ns;
    lock_hold_ns += o.lock_hold_ns;
    compute_ns += o.compute_ns;
    units += o.units;
    batches += o.batches;
    wakeups_issued += o.wakeups_issued;
    sleeps += o.sleeps;
    batch_hist.merge(o.batch_hist);
    compute_hist.merge(o.compute_hist);
    commit_hist.merge(o.commit_hist);
  }

  [[nodiscard]] double mean_batch_size() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(units) /
                              static_cast<double>(batches);
  }
};

struct ThreadRunReport {
  std::uint64_t units = 0;
  int threads = 0;
  std::uint64_t tt_probes = 0;  ///< table probes across all workers
  std::uint64_t tt_hits = 0;    ///< validated, depth-covering hits
  std::uint64_t elapsed_ns = 0;  ///< wall time of the run() call
  SchedulerStats sched;          ///< aggregated across workers + engine lock
  /// Node-storage occupancy at the end of the run — arena/slab bytes and
  /// cold-record reclamation totals (DESIGN.md §15).
  core::EngineMemStats mem;
  /// Wasted-work attribution ledger.  Unit counts are always exact;
  /// compute_ns is populated only on traced runs — untraced thread workers
  /// never read the clock, so they stamp 0 ns per unit (DESIGN.md §16).
  core::EngineWasteStats waste;

  [[nodiscard]] double tt_hit_rate() const noexcept {
    return tt_probes == 0
               ? 0.0
               : static_cast<double>(tt_hits) / static_cast<double>(tt_probes);
  }
  /// Fraction of total worker-time spent blocked on the heap lock — the
  /// contention number batching exists to shrink.
  [[nodiscard]] double lock_wait_share() const noexcept {
    const double total = static_cast<double>(elapsed_ns) *
                         static_cast<double>(threads);
    return total > 0 ? static_cast<double>(sched.lock_wait_ns) / total : 0.0;
  }
  /// Fraction of total worker-time spent *inside* engine lock sections.
  [[nodiscard]] double lock_hold_share() const noexcept {
    const double total = static_cast<double>(elapsed_ns) *
                         static_cast<double>(threads);
    return total > 0 ? static_cast<double>(sched.lock_hold_ns) / total : 0.0;
  }
};

template <typename EngineT>
class ThreadExecutor {
 public:
  explicit ThreadExecutor(int threads) : threads_(threads) {
    ERS_CHECK(threads >= 1);
  }

  /// Units a worker pulls per engine heap access (its local run-buffer
  /// size).  1 reproduces the unbatched scheduler exactly.
  ThreadExecutor& with_batch_size(int k) noexcept {
    ERS_CHECK(k >= 1);
    batch_size_ = k;
    return *this;
  }

  /// Bench control: give each worker a private ConcurrentTranspositionTable
  /// of 2^size_log2 slots, overriding the engine's shared table for the
  /// compute phase.  Tables live for one run() and are then discarded.
  ThreadExecutor& use_per_thread_tables(int size_log2) noexcept {
    per_thread_table_log2_ = size_log2;
    return *this;
  }

  /// Attach a trace session: every worker records its scheduling events
  /// (compute spans, batches, sleeps, wakeups) into its own ring, stamped
  /// with steady-clock ns from the session epoch; the engine's lock
  /// wait/hold spans land on the same per-worker rings via the session's
  /// thread-local tracer, which each worker installs for its lifetime.
  /// The session must outlive run(); read it only after run() returns.
  /// Null (the default) keeps the untraced hot path: no clock reads, no
  /// stores.  Trace spans reuse the very timestamps the stats arithmetic
  /// takes, so per-worker trace totals and the run report agree exactly up
  /// to ring-buffer drops.
  ThreadExecutor& with_trace(obs::TraceSession* session) noexcept {
    trace_ = session;
    return *this;
  }

  /// Run the engine to completion on `threads_` workers; blocks until done.
  /// A stalled engine is a scheduling bug: its report goes to stderr and
  /// the run aborts.
  ThreadRunReport run(EngineT& engine) {
    using Clock = std::chrono::steady_clock;
    const auto run_start = Clock::now();

    if constexpr (!obs::kTracingEnabled) trace_ = nullptr;
    if (trace_ != nullptr) trace_->ensure_workers(threads_);

    // Parking.  wake_mu serializes only the sleep/wake handshake, never any
    // engine access on the waker's side: wakers make work visible first
    // (inside the engine), then pass through wake_mu, so a parking worker
    // that re-checks under wake_mu either sees the work or is already in
    // wait() when the notify lands — no lost wakeups.  Sleepers do read the
    // engine's queue count while holding wake_mu; nothing takes wake_mu
    // while holding the engine lock, so the hierarchy stays acyclic.
    std::mutex wake_mu;
    std::condition_variable cv;
    std::atomic<int> sleepers{0};  // mutated under wake_mu; read lock-free

    std::vector<SchedulerStats> stats(static_cast<std::size_t>(threads_));

    std::vector<std::unique_ptr<ConcurrentTranspositionTable>> tables;
    if (per_thread_table_log2_ >= 0) {
      tables.reserve(static_cast<std::size_t>(threads_));
      for (int i = 0; i < threads_; ++i)
        tables.push_back(std::make_unique<ConcurrentTranspositionTable>(
            per_thread_table_log2_));
    }
    // The heavy phase, with the worker's private table when the per-thread
    // control is on (the engine's shared table otherwise).
    auto compute_into = [&](int index, const WorkItem& item, Result& out) {
      if (tables.empty())
        engine.compute_into(item, out);
      else
        engine.compute_into(item, tables[static_cast<std::size_t>(index)].get(),
                            out);
    };

    const std::size_t k = static_cast<std::size_t>(batch_size_);

    auto finished = [&] { return engine.done() || engine.stalled(); };

    // Park until work plausibly exists again (or the run is over).
    auto park = [&](SchedulerStats& st, obs::Tracer* tr) {
      std::unique_lock<std::mutex> lk(wake_mu);
      auto ready = [&] { return finished() || engine.queued_count() > 0; };
      if (ready()) return;
      sleepers.fetch_add(1);
      ++st.sleeps;
      const auto sleep_from =
          tr != nullptr ? Clock::now() : Clock::time_point{};
      cv.wait(lk, ready);
      sleepers.fetch_sub(1);
      lk.unlock();
      if (tr != nullptr)
        tr->span(obs::EventKind::kSleepSpan, trace_->to_ns(sleep_from),
                 trace_->now_ns());
    };

    // Targeted wakeups: at most one sleeper per unit actually queued.  The
    // empty wake_mu section pairs with the sleeper's locked re-check (see
    // above).
    auto wake_for_queued = [&](SchedulerStats& st, obs::Tracer* tr) {
      if (sleepers.load() <= 0) return;
      const std::size_t wake = std::min(
          engine.queued_count(), static_cast<std::size_t>(sleepers.load()));
      if (wake == 0) return;
      { std::lock_guard<std::mutex> g(wake_mu); }
      st.wakeups_issued += wake;
      for (std::size_t i = 0; i < wake; ++i) cv.notify_one();
      if (tr != nullptr)
        tr->instant(obs::EventKind::kWakeup, trace_->now_ns(),
                    obs::kNoTraceNode, static_cast<std::uint32_t>(wake));
    };

    // Exit path: pass through wake_mu before the broadcast so sleepers'
    // locked re-checks are ordered against our observation of done/stalled.
    auto broadcast_exit = [&] {
      obs::TraceSession::set_thread_tracer(nullptr);
      { std::lock_guard<std::mutex> g(wake_mu); }
      cv.notify_all();
    };

    // Flush completions, acquire a batch, compute it, repeat.
    auto worker = [&](int index) {
      SchedulerStats& st = stats[static_cast<std::size_t>(index)];
      obs::Tracer* tr = trace_ == nullptr ? nullptr : &trace_->worker(index);
      obs::TraceSession::set_thread_tracer(tr);
      std::vector<WorkItem> run_buf;
      std::vector<Entry> done_buf;
      run_buf.reserve(k);
      done_buf.reserve(k);
      // Recycled compute-result buffers: committed entries donate their
      // results (whose child vectors keep capacity — the engine copies
      // positions out, never moves the buffers) back to a spare pool, so
      // steady-state expansion computes into warm vectors instead of
      // allocating fresh ones per unit.
      std::vector<Result> spare;
      spare.reserve(kSpareResults);
      int spins = 0;

      for (;;) {
        // --- flush completions ---------------------------------------------
        if (!done_buf.empty()) {
          if (tr != nullptr) {
            tr->instant(obs::EventKind::kCommitBatch, trace_->now_ns(),
                        obs::kNoTraceNode,
                        static_cast<std::uint32_t>(done_buf.size()));
            const auto f0 = Clock::now();
            engine.commit_batch(std::span<Entry>(done_buf));
            st.commit_hist.record(ns(f0, Clock::now()));
          } else {
            engine.commit_batch(std::span<Entry>(done_buf));
          }
          st.units += done_buf.size();
          for (Entry& e : done_buf)
            if (spare.size() < kSpareResults)
              spare.push_back(std::move(e.result));
          done_buf.clear();
        }
        if (finished()) return broadcast_exit();

        // --- acquire the next batch ---------------------------------------
        const std::size_t got = engine.acquire_batch(k, run_buf);
        if (got == 0) {
          // The acquire may itself have finished the search (pop-time
          // cutoffs combine inline) or found the engine stalled.
          if (finished()) return broadcast_exit();
          if (spins < kDryYieldRounds) {
            // Bounded backoff before the futex sleep: yield, don't pause —
            // work is usually released within a commit or two, and a
            // voluntary reschedule donates the timeslice to whichever
            // worker holds it (decisive on an oversubscribed machine,
            // where a pause loop just burns the quantum the work holder
            // needs), while a sleep plus wakeup costs two syscalls.
            ++spins;
            std::this_thread::yield();
            continue;
          }
          spins = 0;
          park(st, tr);
          continue;
        }
        spins = 0;
        st.record_batch(got);
        if (tr != nullptr)
          tr->instant(obs::EventKind::kAcquireBatch, trace_->now_ns(),
                      run_buf.front().node, static_cast<std::uint32_t>(got));
        wake_for_queued(st, tr);

        // --- parallel section: compute the whole batch, no locks held -----
        for (const WorkItem& item : run_buf) {
          Result result;
          if (!spare.empty()) {
            result = std::move(spare.back());
            spare.pop_back();
          }
          if (tr == nullptr) {
            compute_into(index, item, result);
            done_buf.push_back(Entry{item, std::move(result)});
            continue;
          }
          const auto c0 = Clock::now();
          compute_into(index, item, result);
          const auto c1 = Clock::now();
          const std::uint64_t cns = ns(c0, c1);
          st.compute_ns += cns;
          st.compute_hist.record(cns);
          // The waste ledger charges exactly this duration if the unit's
          // subtree is later cancelled.
          result.compute_ns = cns;
          tr->span(obs::EventKind::kComputeSpan, trace_->to_ns(c0),
                   trace_->to_ns(c1), item.node);
          trace_tt(*tr, trace_->to_ns(c1), item.node, result);
          done_buf.push_back(Entry{item, std::move(result)});
        }
        run_buf.clear();
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i) pool.emplace_back(worker, i);
    for (auto& t : pool) t.join();
    if (engine.stalled()) {
      std::fprintf(stderr,
                   "ThreadExecutor stall: no queued work, no unit "
                   "outstanding, engine not done (%d threads, batch %d).\n%s",
                   threads_, batch_size_, engine.stall_report().c_str());
      ERS_CHECK(!"problem-heap engine stalled");
    }
    ERS_CHECK(engine.done());

    ThreadRunReport report;
    report.threads = threads_;
    report.elapsed_ns = ns(run_start, Clock::now());
    for (const SchedulerStats& st : stats) report.sched.merge(st);
    report.units = report.sched.units;
    // Fold the engine's lock accounting into the aggregate the benches read.
    const core::EngineLockStats ls = engine.lock_stats();
    report.sched.lock_acquisitions += ls.acquisitions;
    report.sched.lock_wait_ns += ls.wait_ns;
    report.sched.lock_hold_ns += ls.hold_ns;
    const core::EngineStats es = engine.stats();
    report.tt_probes = es.search.tt_probes;
    report.tt_hits = es.search.tt_hits;
    report.mem = engine.mem_stats();
    report.waste = engine.waste_stats();
    return report;
  }

 private:
  using WorkItem = core::WorkItem;
  using Entry = typename EngineT::CommitEntry;
  using Result = typename EngineT::ComputeResult;

  /// Yield-retry rounds a dry worker donates its timeslice through before
  /// parking on the condition variable (a futex sleep plus wakeup costs two
  /// syscalls; work is usually released within a commit or two).
  static constexpr int kDryYieldRounds = 16;
  /// Cap on a worker's recycled compute-result pool.  Bounds the warm
  /// capacity a worker retains to a small multiple of its batch size.
  static constexpr std::size_t kSpareResults = 64;

  [[nodiscard]] static std::uint64_t ns(
      std::chrono::steady_clock::time_point a,
      std::chrono::steady_clock::time_point b) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  /// Per-unit transposition-table traffic as trace instants, from the
  /// compute result's own counters (compute runs outside every lock, so the
  /// worker's ring — not the engine's — must carry these).
  static void trace_tt(obs::Tracer& tr, std::uint64_t ts, std::uint32_t node,
                       const Result& r) {
    if (r.stats.tt_probes > 0)
      tr.instant(obs::EventKind::kTtProbe, ts, node,
                 static_cast<std::uint32_t>(r.stats.tt_probes));
    if (r.stats.tt_hits > 0)
      tr.instant(obs::EventKind::kTtHit, ts, node,
                 static_cast<std::uint32_t>(r.stats.tt_hits));
  }

  int threads_;
  int batch_size_ = 1;
  int per_thread_table_log2_ = -1;  ///< < 0: use the engine's configuration
  obs::TraceSession* trace_ = nullptr;  ///< not owned; null = untraced
};

}  // namespace ers::runtime
