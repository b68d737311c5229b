#pragma once
// Deterministic discrete-event simulation of P processors driving a
// problem-heap engine (DESIGN.md §1: the substitute for the paper's Sequent
// Symmetry).
//
// The executor works with any engine exposing the protocol of
// core::Engine — acquire()/compute()/commit()/done() — so the same harness
// simulates parallel ER and the MWF baseline.  Engines exposing the batch
// forms (acquire_batch/commit_batch) can additionally be driven with a
// scheduler batch size > 1, mirroring the thread runtime's batched
// scheduler in the cost model.
//
// Model:
//  * P identical virtual processors.  A processor is either idle (starving)
//    or busy with one batch of up to `batch` work units.
//  * acquire+compute+commit form one batch.  The heavy compute part costs
//    the sum of CostModel::of(unit stats) over the batch; the acquire and
//    the commit each perform one access to the shared problem heap
//    (CostModel::per_heap_acquire / per_heap_commit), serialized on the one
//    heap lock, modeling the paper's interference loss.  Batching therefore
//    pays the serialized heap price once per batch instead of once per
//    unit — exactly the thread runtime's remedy.  Engine state changes are
//    applied atomically in event order, so the schedule is deterministic
//    and the search result is exact; the lock models *time*, not state
//    races.
//  * The run ends the moment the engine reports done (root combined); work
//    still in flight at that point is abandoned speculative work, exactly as
//    on the real machine.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"
#include "util/check.hpp"

namespace ers::sim {

struct SimMetrics {
  std::uint64_t makespan = 0;        ///< simulated completion time
  std::uint64_t busy_time = 0;       ///< total processor-time spent computing
  std::uint64_t idle_time = 0;       ///< total processor-time starving
  std::uint64_t lock_wait_time = 0;  ///< total time blocked on the heap lock
  std::uint64_t units = 0;           ///< work units completed
  std::uint64_t heap_accesses = 0;   ///< serialized heap ops (acquire+commit)
  /// Distribution views of the run (obs/histogram.hpp), mirroring the
  /// thread scheduler's triple: per-unit compute cost, per-batch commit
  /// latency (completion to processor freed: lock wait + apply), and
  /// acquired batch sizes.  Deterministic under the virtual clock.
  obs::Histogram compute_hist;
  obs::Histogram commit_hist;
  obs::Histogram batch_hist;
  int processors = 0;

  /// Fraction of processor-time that did useful work.
  [[nodiscard]] double utilization() const noexcept {
    const double total =
        static_cast<double>(makespan) * static_cast<double>(processors);
    return total > 0 ? static_cast<double>(busy_time) / total : 0.0;
  }
};

template <typename EngineT>
class SimExecutor {
 public:
  /// `batch` is the scheduler batch size: units pulled (and committed) per
  /// serialized heap access; 1 is the paper's unbatched scheduler.
  SimExecutor(int processors, CostModel cost = {}, int batch = 1)
      : processors_(processors), cost_(cost), batch_(batch) {
    ERS_CHECK(processors >= 1);
    ERS_CHECK(batch >= 1);
  }

  /// Attach a trace session: the simulator emits the *same* event schema as
  /// the thread runtime (lock wait/hold, compute spans, acquire/commit
  /// batches, starvation as sleep spans) stamped on its virtual clock — one
  /// simulated cost unit per "ns" — so a simulated and a real run of the
  /// same tree open side by side in one Perfetto view.  The session is
  /// switched to its virtual clock, which also timestamps the engine's own
  /// trace hooks.  Deterministic: same engine + config ⇒ identical events.
  SimExecutor& with_trace(obs::TraceSession* session) noexcept {
    trace_ = obs::kTracingEnabled ? session : nullptr;
    return *this;
  }

  /// Attach a sampler driven in virtual-clock mode: the executor polls it at
  /// every event it retires (and once at the makespan), so the time series
  /// is a pure function of the schedule — deterministic, bit for bit
  /// (sampler_test.cpp).  The probe runs synchronously on the simulator
  /// thread at the poll points; do not start() the sampler's own thread.
  SimExecutor& with_sampler(obs::Sampler* sampler) noexcept {
    sampler_ = sampler;
    return *this;
  }

  /// Run the engine to completion; returns the simulated metrics.
  SimMetrics run(EngineT& engine) {
    using ItemT = std::decay_t<decltype(*engine.acquire())>;
    using ComputeT = decltype(engine.compute(*engine.acquire()));

    struct Entry {
      ItemT item;
      ComputeT result;
    };
    struct Completion {
      std::uint64_t t;
      std::uint64_t seq;
      std::uint64_t started;
      int worker;
      std::vector<Entry> batch;
    };
    struct Later {
      bool operator()(const Completion& a, const Completion& b) const noexcept {
        return a.t != b.t ? a.t > b.t : a.seq > b.seq;
      }
    };
    std::priority_queue<Completion, std::vector<Completion>, Later> inflight;

    struct IdleWorker {
      std::uint64_t since;
      int id;
      bool operator>(const IdleWorker& o) const noexcept {
        return since != o.since ? since > o.since : id > o.id;
      }
    };
    std::priority_queue<IdleWorker, std::vector<IdleWorker>, std::greater<>> idle;
    for (int w = 0; w < processors_; ++w) idle.push(IdleWorker{0, w});

    SimMetrics m;
    m.processors = processors_;
    if (trace_ != nullptr) {
      trace_->ensure_workers(processors_);
      trace_->use_virtual_clock();
    }
    std::uint64_t now = 0;
    std::uint64_t lock_free = 0;  // virtual time the heap lock next frees
    std::vector<ItemT> items;     // acquire scratch
    // Committed batches hand their vectors and results back here, so the
    // next dispatch computes into warm buffers (child vectors, the engine's
    // serial-ER arenas) instead of allocating fresh ones per unit.
    std::vector<std::vector<Entry>> spare_batches;
    std::vector<ComputeT> spare_results;
    // A heap access occupies the heap lock for `op_cost` serialized time
    // units; returns when the access starts.
    auto lock_acquire = [&](std::uint64_t at, std::uint64_t op_cost) {
      const std::uint64_t start = std::max(at, lock_free);
      lock_free = start + op_cost;
      ++m.heap_accesses;
      return start;
    };
    std::uint64_t seq = 0;

    auto dispatch = [&] {
      while (!idle.empty()) {
        // The worker that will take the batch is known before the pop (the
        // longest-starved one); point the engine's trace hooks at it so
        // acquire-time cancellations are attributed to the right track.
        const IdleWorker w = idle.top();
        if (trace_ != nullptr) {
          trace_->set_current_worker(w.id);
          trace_->set_virtual_now(now);
        }
        items.clear();
        acquire_into(engine, static_cast<std::size_t>(batch_), items);
        if (items.empty()) break;
        idle.pop();
        m.idle_time += now - w.since;
        // One serialized heap access for the whole acquired batch.
        const std::uint64_t start = lock_acquire(now, cost_.per_heap_acquire);
        m.lock_wait_time += start - now;
        obs::Tracer* tr =
            trace_ == nullptr ? nullptr : &trace_->worker(w.id);
        if (tr != nullptr) {
          if (now > w.since)
            tr->span(obs::EventKind::kSleepSpan, w.since, now);
          if (start > now)
            tr->span(obs::EventKind::kLockWaitSpan, now, start);
          tr->span(obs::EventKind::kLockHoldSpan, start,
                   start + cost_.per_heap_acquire);
          tr->instant(obs::EventKind::kAcquireBatch, start,
                      node_of(items.front()),
                      static_cast<std::uint32_t>(items.size()));
        }
        std::vector<Entry> batch;
        if (!spare_batches.empty()) {
          batch = std::move(spare_batches.back());
          spare_batches.pop_back();
        }
        std::uint64_t compute_cost = 0;
        std::uint64_t t = start + cost_.per_heap_acquire;
        m.batch_hist.record(items.size());
        for (ItemT& item : items) {
          ComputeT result{};
          if (!spare_results.empty()) {
            result = std::move(spare_results.back());
            spare_results.pop_back();
          }
          compute_into(engine, item, result);
          const std::uint64_t c = cost_.of(result.stats);
          compute_cost += c;
          m.compute_hist.record(c);
          // The unit's virtual compute duration rides the result into
          // commit_one: the engine's waste ledger charges exactly this on
          // cancellation, making sim-side waste ns exact (not sampled).
          if constexpr (requires { result.compute_ns; }) result.compute_ns = c;
          if (tr != nullptr) {
            tr->span(obs::EventKind::kComputeSpan, t, t + c, node_of(item));
            trace_tt(*tr, t + c, node_of(item), result);
          }
          t += c;
          batch.push_back(Entry{std::move(item), std::move(result)});
        }
        const std::uint64_t done_at =
            start + cost_.per_heap_acquire + compute_cost;
        inflight.push(
            Completion{done_at, seq++, start, w.id, std::move(batch)});
      }
    };

    dispatch();
    while (!engine.done()) {
      ERS_CHECK(!inflight.empty() && "problem-heap engine stalled");
      Completion ev = std::move(const_cast<Completion&>(inflight.top()));
      inflight.pop();
      now = ev.t;
      // One serialized access commits the whole batch.
      const std::uint64_t commit_cost = cost_.per_heap_commit;
      const std::uint64_t start = lock_acquire(now, commit_cost);
      m.lock_wait_time += start - now;
      if (trace_ != nullptr) {
        obs::Tracer& tr = trace_->worker(ev.worker);
        if (start > now)
          tr.span(obs::EventKind::kLockWaitSpan, now, start);
        tr.span(obs::EventKind::kLockHoldSpan, start, start + commit_cost);
        tr.instant(obs::EventKind::kCommitBatch, start,
                   node_of(ev.batch.front().item),
                   static_cast<std::uint32_t>(ev.batch.size()));
        trace_->set_current_worker(ev.worker);
        trace_->set_virtual_now(start);
      }
      const std::uint64_t freed_at = start + commit_cost;
      // Busy time is credited at commit so that work still in flight when
      // the root combines can be clamped to the makespan below.
      m.busy_time += (ev.t - ev.started) + commit_cost;
      commit_all(engine, ev.batch);
      m.units += ev.batch.size();
      for (Entry& e : ev.batch) spare_results.push_back(std::move(e.result));
      ev.batch.clear();
      spare_batches.push_back(std::move(ev.batch));
      m.commit_hist.record(freed_at - ev.t);
      m.makespan = std::max(m.makespan, freed_at);
      idle.push(IdleWorker{freed_at, ev.worker});
      now = freed_at;
      // Sample after the commit landed: a tick due at virtual time T sees
      // the engine exactly as of the last event retired at or before T.
      if (sampler_ != nullptr) sampler_->poll(now);
      dispatch();
    }
    if (sampler_ != nullptr) sampler_->poll(m.makespan);

    // Work still in flight when the search completed is abandoned
    // speculative work: it kept its processor busy only until the makespan.
    while (!inflight.empty()) {
      const Completion& ev = inflight.top();
      if (m.makespan > ev.started) m.busy_time += m.makespan - ev.started;
      inflight.pop();
    }
    // Remaining in-flight work is abandoned; idle processors starve until
    // the makespan.
    while (!idle.empty()) {
      const IdleWorker w = idle.top();
      idle.pop();
      if (m.makespan > w.since) {
        m.idle_time += m.makespan - w.since;
        if (trace_ != nullptr)
          trace_->worker(w.id).span(obs::EventKind::kSleepSpan, w.since,
                                    m.makespan);
      }
    }
    return m;
  }

 private:
  /// Pull up to k items, preferring the engine's batch form.  Engines
  /// exposing only the single-item protocol (the scripted DES fake, the
  /// baselines) are popped one at a time — identical semantics.
  template <typename E, typename ItemT>
  static void acquire_into(E& engine, std::size_t k, std::vector<ItemT>& out) {
    if constexpr (requires { engine.acquire_batch(k, out); }) {
      engine.acquire_batch(k, out);
    } else {
      while (out.size() < k) {
        auto item = engine.acquire();
        if (!item) break;
        out.push_back(std::move(*item));
      }
    }
  }

  /// Compute `item` into `out`, reusing its buffers where the engine
  /// supports it (core::Engine::compute_into).
  template <typename E, typename ItemT, typename Result>
  static void compute_into(E& engine, const ItemT& item, Result& out) {
    if constexpr (requires { engine.compute_into(item, out); })
      engine.compute_into(item, out);
    else
      out = engine.compute(item);
  }

  template <typename E, typename EntryT>
  static void commit_all(E& engine, std::vector<EntryT>& batch) {
    for (EntryT& e : batch) engine.commit(e.item, std::move(e.result));
  }

  /// Engine node id of a work item, for trace events; kNoTraceNode for
  /// engines whose items carry no node id.
  template <typename Item>
  [[nodiscard]] static std::uint32_t node_of(const Item& item) noexcept {
    if constexpr (requires { item.node; })
      return static_cast<std::uint32_t>(item.node);
    else
      return obs::kNoTraceNode;
  }

  /// Per-unit transposition-table traffic as trace instants, mirroring the
  /// thread runtime's schema (same kinds, same arg meaning).
  template <typename Result>
  static void trace_tt(obs::Tracer& tr, std::uint64_t ts, std::uint32_t node,
                       const Result& r) {
    if constexpr (requires { r.stats.tt_probes; }) {
      if (r.stats.tt_probes > 0)
        tr.instant(obs::EventKind::kTtProbe, ts, node,
                   static_cast<std::uint32_t>(r.stats.tt_probes));
      if (r.stats.tt_hits > 0)
        tr.instant(obs::EventKind::kTtHit, ts, node,
                   static_cast<std::uint32_t>(r.stats.tt_hits));
    } else {
      (void)tr;
      (void)ts;
      (void)node;
    }
  }

  int processors_;
  CostModel cost_;
  int batch_;
  obs::TraceSession* trace_ = nullptr;  ///< not owned; null = untraced
  obs::Sampler* sampler_ = nullptr;     ///< not owned; polled in virtual mode
};

}  // namespace ers::sim
