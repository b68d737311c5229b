#pragma once
// Drivers that produce the paper's measured quantities for one experiment
// tree: the serial baselines (alpha-beta and serial ER, whose minimum is the
// denominator of every speedup), and one parallel-ER simulated run per
// processor count.

#include <cstdint>

#include "core/types.hpp"
#include "gametree/game.hpp"
#include "harness/tree_registry.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"
#include "sim/executor.hpp"

namespace ers::harness {

struct SerialBaseline {
  Value value = 0;
  SearchStats alpha_beta;        ///< serial alpha-beta (sorted per tree config)
  SearchStats er;                ///< serial ER (same ordering policy)
  std::uint64_t alpha_beta_cost = 0;
  std::uint64_t er_cost = 0;

  [[nodiscard]] std::uint64_t best_cost() const noexcept {
    return alpha_beta_cost < er_cost ? alpha_beta_cost : er_cost;
  }
  /// The figures' "serial alpha-beta efficiency" reference line: < 1 exactly
  /// when serial ER is the faster serial algorithm on this tree.
  [[nodiscard]] double alpha_beta_efficiency() const noexcept {
    return static_cast<double>(best_cost()) /
           static_cast<double>(alpha_beta_cost);
  }
};

struct ParallelPoint {
  int processors = 0;
  Value value = 0;
  std::uint64_t makespan = 0;
  std::uint64_t nodes_generated = 0;
  double speedup = 0.0;     ///< best serial cost / simulated parallel time
  double efficiency = 0.0;  ///< speedup / processors
  sim::SimMetrics metrics;
  core::EngineStats engine;
  core::EngineMemStats mem;  ///< node-storage occupancy (DESIGN.md §15)
  /// Wasted-work attribution (DESIGN.md §16): the waste share
  /// total_ns / (P * makespan) decomposes the efficiency loss the figures
  /// report as 1 - efficiency.
  core::EngineWasteStats waste;
};

[[nodiscard]] SerialBaseline run_serial_baselines(const ExperimentTree& tree,
                                                  const sim::CostModel& cost = {});

/// One simulated parallel-ER run.  `speculation` overrides the engine
/// config's speculation settings (for the ablation bench).  `trace`
/// (optional) records the simulated schedule into the session on its
/// virtual clock (obs/trace_writer.hpp exports it for Perfetto).
[[nodiscard]] ParallelPoint run_parallel_point(
    const ExperimentTree& tree, int processors, const SerialBaseline& serial,
    const sim::CostModel& cost = {},
    const core::SpeculationConfig* speculation = nullptr,
    obs::TraceSession* trace = nullptr);

/// Serial-ER node count on this tree — the P-agnostic reference of Figures
/// 12/13 ("serial" bars).
[[nodiscard]] std::uint64_t serial_er_nodes(const SerialBaseline& serial);

}  // namespace ers::harness
