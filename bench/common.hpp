#pragma once
// Shared plumbing for the figure-regeneration benches: every bench binary
// prints the series of one paper table/figure, using the Table 3 tree
// registry and the deterministic simulated executor (see DESIGN.md §1 for
// why simulated time stands in for the Sequent's wall clock).
//
// All binaries accept:
//   --scale N   reduce every search/serial depth by N (quick smoke runs)
//   --trees A,B restrict to a subset of tree names
//   --trace F   record the bench's runs into a Perfetto trace at F
//               (open in ui.perfetto.dev, or feed to tools/trace_report)
//   --metrics F write the consolidated metrics snapshot (JSON) to F
//   --json-out F write the BENCH rows to F instead of BENCH_<name>.json —
//               what the CI bench guard uses to keep the fresh run from
//               clobbering the committed baseline it diffs against
//   --prom-out F write the metrics snapshot in Prometheus text exposition
//               to F (DESIGN.md §16; lint with tools/check_prom_format.py)
//   --sample-ms N sample live search-health counters every N ms into a
//               time-series ring (0 = off)
//   --sample-out F write the sampled time series (JSON) to F

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/tree_registry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_adapters.hpp"
#include "obs/prometheus.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_writer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace ers::bench {

struct FigureOptions {
  int scale = 0;
  int reps = 5;  ///< repetitions for thread-runtime (nondeterministic) benches
  std::vector<std::string> tree_names;
  std::string trace_path;    ///< empty = untraced (--trace)
  std::string metrics_path;  ///< empty = no snapshot (--metrics)
  std::string json_out;      ///< empty = default BENCH_<name>.json (--json-out)
  std::string prom_out;      ///< empty = no Prometheus exposition (--prom-out)
  int sample_ms = 0;         ///< live-sampling interval; 0 = off (--sample-ms)
  std::string sample_out;    ///< time-series JSON path (--sample-out)

  /// Live sampling is on when an interval was asked for; the default sink
  /// is samples.json next to the other artifacts.
  [[nodiscard]] bool sampling() const noexcept { return sample_ms > 0; }
  [[nodiscard]] std::string sample_sink() const {
    return sample_out.empty() ? "samples.json" : sample_out;
  }
};

inline FigureOptions parse_options(int argc, char** argv,
                                   std::vector<std::string> default_trees) {
  const CliArgs args(argc, argv);
  FigureOptions opt;
  opt.scale = static_cast<int>(args.get_int("scale", 0));
  opt.reps = static_cast<int>(args.get_int("reps", 5));
  opt.trace_path = args.get("trace", "");
  opt.metrics_path = args.get("metrics", "");
  opt.json_out = args.get("json-out", "");
  opt.prom_out = args.get("prom-out", "");
  opt.sample_ms = static_cast<int>(args.get_int("sample-ms", 0));
  opt.sample_out = args.get("sample-out", "");
  std::string trees = args.get("trees", "");
  if (trees.empty()) {
    opt.tree_names = std::move(default_trees);
  } else {
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const auto comma = trees.find(',', pos);
      opt.tree_names.push_back(trees.substr(pos, comma - pos));
      pos = comma == std::string::npos ? comma : comma + 1;
    }
  }
  return opt;
}

/// The trace session a bench should record into: null unless --trace was
/// given (and tracing is compiled in), so benches stay zero-cost when
/// untraced.  The returned pointer aliases `storage`.
[[nodiscard]] inline obs::TraceSession* trace_session_for(
    const FigureOptions& opt, obs::TraceSession& storage) {
  if (opt.trace_path.empty() || !obs::kTracingEnabled) return nullptr;
  return &storage;
}

/// Flush --trace / --metrics artifacts after the bench's runs.  No-ops on
/// empty paths, so every bench can call this unconditionally.
inline void write_observability(const FigureOptions& opt,
                                const obs::TraceSession* trace,
                                const obs::MetricsRegistry& metrics,
                                const std::string& process_name) {
  if (!opt.trace_path.empty()) {
    if (trace != nullptr)
      obs::write_perfetto(opt.trace_path, *trace, process_name);
    else
      std::fprintf(stderr,
                   "--trace ignored: tracing compiled out (ERS_TRACING=OFF) "
                   "or this bench runs no executor\n");
  }
  if (!opt.metrics_path.empty()) metrics.write_json(opt.metrics_path);
  if (!opt.prom_out.empty()) obs::write_prometheus(opt.prom_out, metrics);
}

/// Flatten one simulated parallel point into a registry (overwrites on
/// repeat calls, so benches can register every point and keep the last).
inline void register_parallel_point(obs::MetricsRegistry& reg,
                                    const harness::ParallelPoint& p) {
  reg.set("processors", p.processors);
  reg.set("speedup", p.speedup);
  reg.set("efficiency", p.efficiency);
  obs::register_sim_metrics(reg, p.metrics);
  obs::register_engine_stats(reg, p.engine);
  obs::register_engine_mem_stats(reg, p.mem);
  obs::register_engine_waste_stats(reg, p.waste);
}

/// Run the serial baselines and the full processor sweep for one tree.
struct TreeSweep {
  harness::ExperimentTree tree;
  harness::SerialBaseline serial;
  std::vector<harness::ParallelPoint> points;
};

/// Standard observability epilogue for the simulated sweep benches:
/// snapshot the last sweep's final parallel point into a registry and
/// flush the --trace / --metrics / --prom-out artifacts.
inline void write_sweep_observability(const FigureOptions& opt,
                                      const obs::TraceSession* trace,
                                      const TreeSweep& sweep,
                                      const std::string& process_name) {
  if (opt.trace_path.empty() && opt.metrics_path.empty() &&
      opt.prom_out.empty())
    return;
  obs::MetricsRegistry reg;
  reg.set("bench", process_name);
  reg.set("tree", sweep.tree.name);
  if (!sweep.points.empty()) register_parallel_point(reg, sweep.points.back());
  write_observability(opt, trace, reg, process_name);
}

inline TreeSweep run_sweep(const std::string& name, int scale,
                           const core::SpeculationConfig* speculation = nullptr,
                           obs::TraceSession* trace = nullptr) {
  TreeSweep s{harness::tree_by_name(name, scale), {}, {}};
  s.serial = harness::run_serial_baselines(s.tree);
  for (const int p : harness::figure_processor_counts()) {
    // A traced sweep keeps only its last point: each run starts the session
    // over, so the exported file holds one clean schedule (the largest P),
    // not a pile-up of every sweep point on one virtual timeline.
    if (trace != nullptr) trace->clear();
    s.points.push_back(harness::run_parallel_point(s.tree, p, s.serial, {},
                                                   speculation, trace));
  }
  return s;
}

inline void print_header(const char* what) {
  std::printf("\n=== %s ===\n", what);
  std::printf("(simulated P-processor executor; see DESIGN.md / EXPERIMENTS.md)\n\n");
}

// --- machine-readable summaries ------------------------------------------
//
// Every bench can emit a BENCH_<name>.json next to its table: one JSON
// object per line, so runs diff cleanly and scripts consume them without a
// JSON library on either side.  The emitters live in obs/json.hpp (the
// repo's single JSON writer, shared with the metrics registry and the
// Perfetto trace export); bench code keeps its unqualified spelling via
// the using-declarations below, and the emitted bytes are unchanged
// (tests/obs/json_test.cpp pins them).

using obs::json_escape;
using obs::JsonObject;
using obs::write_bench_json;

}  // namespace ers::bench
