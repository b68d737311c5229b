// End-to-end benchmark of parallel ER and ABDADA against serial alpha-beta.
//
//   perfbench --workload othello-er|othello-abdada|random-sim
//             --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --reference     recompute the stored O1-O3 negamax values
//
// Every search is one operation.  Each position of a workload's suite is
// searched by serial alpha-beta and by the workload's search, the two
// alternating which goes first, in whole rounds over the suite until the run
// time is up.  Absolute wall time drifts with the host's load, so the headline
// metric is a ratio against alpha-beta timed in the same process.  The last
// line of stdout is one JSON object; see README.md for the metrics.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "baselines/abdada_par.hpp"
#include "core/parallel_er.hpp"
#include "harness/experiment.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "othello/game.hpp"
#include "randomtree/random_tree.hpp"
#include "reference.hpp"
#include "search/alpha_beta.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

// Suite sizes.  Depth-7 node counts of random midgame positions spread with
// a coefficient of variation of about 0.55, so the suite mean over 128
// positions still varies by about 5% from seed to seed.
constexpr int kOthelloSuite = 128;
constexpr int kTreesPerShape = 16;
constexpr int kSimProcessors = 16;
// One fewer than the 4 cores of the reference host, so that the
// benchmark's own thread and the host's other load do not preempt a worker.
constexpr int kAbdadaThreads = 3;
// The warm-up searches the first items of the suite, which do not depend
// on the seed (O1-O3, or the first tree of each shape), so that set-up does
// the same work in every run.
constexpr int kWarmupItems = 3;
// The simulated ER speedup of the Othello workloads is taken on this many
// suite positions (each costs ~0.15 s).
constexpr int kSimSpeedupPositions = 32;
// Repeats kept per item without reallocating: the timed rounds make no
// long-lived allocation, which would fragment the heap and make the peak
// resident set depend on when a vector happened to grow.
constexpr std::size_t kMaxRounds = 256;
constexpr int kProbePositions = 6;

enum class Workload { kOthelloEr, kOthelloAbdada, kRandomSim };

struct Options {
  Workload workload = Workload::kOthelloEr;
  std::string workload_name;
  std::uint64_t seed = 1;
  int seconds = 25;
  bool trace = false;
  bool reference = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "othello-er|othello-abdada|random-sim --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n       perfbench --reference\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reference") {
      o.reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload_name = v;
      have_workload = true;
      if (v == "othello-er")
        o.workload = Workload::kOthelloEr;
      else if (v == "othello-abdada")
        o.workload = Workload::kOthelloAbdada;
      else if (v == "random-sim")
        o.workload = Workload::kRandomSim;
      else
        usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      const long s = std::strtol(v.c_str(), &end, 10);
      if (*end != '\0' || s < 1 || s > 600) usage("bad --seconds");
      o.seconds = static_cast<int>(s);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage("unknown argument");
    }
  }
  if (!o.reference && !have_workload) usage("--workload is required");
  return o;
}

ers::OrderingPolicy othello_ordering() {
  ers::OrderingPolicy p;
  p.sort_by_static_value = true;
  p.max_sort_ply = kOthelloMaxSortPly;
  return p;
}

ers::core::EngineConfig othello_config() {
  ers::core::EngineConfig c;
  c.search_depth = kOthelloDepth;
  c.serial_depth = kOthelloSerialDepth;
  c.ordering = othello_ordering();
  return c;
}

ers::core::EngineConfig tree_config(const TreeShape& s) {
  ers::core::EngineConfig c;
  c.search_depth = s.depth;
  c.serial_depth = s.serial_depth;
  return c;
}

struct Outcome {
  ers::Value value = 0;
  std::uint64_t nodes = 0;
};

/// One position of a suite: serial alpha-beta and the workload's search on
/// it, with the timings and counts of every repeat.
struct Item {
  std::string name;
  std::function<Outcome()> alpha_beta;
  std::function<Outcome()> search;
  /// Value from a computation that shares no code with the library: the
  /// stored negamax value (O1-O3) or the benchmark's own negamax (trees).
  std::optional<ers::Value> expected;
  /// Value of the first alpha-beta search; every later search must match.
  std::optional<ers::Value> reference;
  std::vector<double> ab_ms, search_ms, search_nodes;
};

/// Everything a workload searches, kept at stable addresses for the
/// closures in its items.
struct Suite {
  std::deque<ers::othello::OthelloGame> games;
  std::deque<ers::harness::ExperimentTree> trees;
  std::vector<OthelloPosition> positions;
  std::vector<Item> items;
  const char* search_span = "";
};

Suite othello_suite_for(const Options& o) {
  Suite s;
  s.positions = othello_suite(o.seed, kOthelloSuite);
  const ers::core::EngineConfig cfg = othello_config();
  s.search_span = o.workload == Workload::kOthelloAbdada
                      ? "baselines.abdada_parallel_search"
                      : "runtime.parallel_er_threads";
  for (const OthelloPosition& p : s.positions) {
    const ers::othello::OthelloGame* g = &s.games.emplace_back(p.board);
    Item it;
    it.name = p.name;
    it.expected = p.negamax_value;
    it.alpha_beta = [g] {
      const auto r = ers::alpha_beta_search(*g, kOthelloDepth, othello_ordering());
      return Outcome{r.value, r.stats.nodes_generated()};
    };
    if (o.workload == Workload::kOthelloAbdada) {
      it.search = [g] {
        ers::baselines::AbdadaOptions opt;
        opt.threads = kAbdadaThreads;
        opt.ordering = othello_ordering();
        const auto r = ers::baselines::abdada_parallel_search(*g, kOthelloDepth, opt);
        return Outcome{r.value, r.stats.nodes_generated()};
      };
    } else {
      it.search = [g, cfg] {
        const auto r = ers::parallel_er_threads(*g, cfg, 1);
        return Outcome{r.value, r.engine.search.nodes_generated()};
      };
    }
    s.items.push_back(std::move(it));
  }
  return s;
}

Suite random_suite_for(const Options& o) {
  Suite s;
  s.search_span = "sim.parallel_er_sim";
  for (const RandomTreeSpec& spec : random_trees(o.seed, kTreesPerShape)) {
    const ers::UniformRandomTree game(spec.shape.degree, spec.shape.depth,
                                      spec.tree_seed);
    const ers::harness::ExperimentTree* t = &s.trees.emplace_back(
        ers::harness::ExperimentTree{spec.name, game, tree_config(spec.shape)});
    const ers::UniformRandomTree* g = &std::get<ers::UniformRandomTree>(t->game);
    Item it;
    it.name = spec.name;
    it.expected = negamax(*g, spec.shape.depth);
    it.alpha_beta = [g, t] {
      const auto r = ers::alpha_beta_search(*g, t->engine.search_depth);
      return Outcome{r.value, r.stats.nodes_generated()};
    };
    it.search = [g, t] {
      const auto r = ers::parallel_er_sim(*g, t->engine, kSimProcessors);
      return Outcome{r.value, r.engine.search.nodes_generated()};
    };
    s.items.push_back(std::move(it));
  }
  return s;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct PairTimes {
  double ab_ms = 0;
  double search_ms = 0;
  std::uint64_t ab_nodes = 0;
};

/// Searches one item with alpha-beta and the workload's search, in the given
/// order, and checks both values.
PairTimes run_pair(Item& it, bool ab_first, SpanLog* log,
                   const char* search_span, Tally& tally) {
  Outcome ab, x;
  double ab_ms = 0, x_ms = 0;
  for (int k = 0; k < 2; ++k) {
    if ((k == 0) == ab_first) {
      ScopedSpan span(log, "search.alpha_beta");
      ab = it.alpha_beta();
      span.count(1, ab.nodes);
      ab_ms = static_cast<double>(span.elapsed_ns()) / 1e6;
    } else {
      ScopedSpan span(log, search_span);
      x = it.search();
      span.count(1, x.nodes);
      x_ms = static_cast<double>(span.elapsed_ns()) / 1e6;
    }
  }
  if (!it.reference) it.reference = ab.value;
  const bool ab_ok = ab.value == *it.reference &&
                     (!it.expected || ab.value == *it.expected);
  const bool x_ok =
      x.value == ab.value && (!it.expected || x.value == *it.expected);
  tally.attempted += 2;
  tally.failed += (ab_ok ? 0 : 1) + (x_ok ? 0 : 1);
  if (!x_ok || !ab_ok)
    std::fprintf(stderr, "perfbench: %s: value mismatch (ab %d, search %d)\n",
                 it.name.c_str(), ab.value, x.value);
  it.search_nodes.push_back(static_cast<double>(x.nodes));
  return {ab_ms, x_ms, ab.nodes};
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool perft_matches() {
  const ers::othello::OthelloGame game;
  for (int d = 1; d <= 8; ++d)
    if (perft(game, d) != kOthelloPerft[d - 1]) {
      std::fprintf(stderr, "perfbench: Othello perft(%d) is wrong\n", d);
      return false;
    }
  return true;
}

int compute_reference() {
  for (const OthelloPosition& p : stored_positions())
    std::printf("%s %d\n", p.name.c_str(),
                negamax(ers::othello::OthelloGame(p.board), kOthelloDepth));
  return 0;
}

void print_result(bool correct, const Tally& t, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// The first `n` items of the suite as harness trees.
std::vector<ers::harness::ExperimentTree> sim_trees(const Suite& s, std::size_t n) {
  std::vector<ers::harness::ExperimentTree> out;
  for (std::size_t i = 0; i < n && i < s.items.size(); ++i) {
    if (s.trees.empty())
      out.push_back({s.items[i].name, s.games[i], othello_config()});
    else
      out.push_back(s.trees[i]);
  }
  return out;
}

/// Simulated parallel-ER speedup at kSimProcessors over the best serial cost,
/// as harness::run_parallel_point defines it, summed over `trees`.
double sim_speedup(const std::vector<ers::harness::ExperimentTree>& trees) {
  double cost = 0, makespan = 0;
  for (const auto& t : trees) {
    const auto serial = ers::harness::run_serial_baselines(t);
    const auto p = ers::harness::run_parallel_point(t, kSimProcessors, serial);
    cost += static_cast<double>(serial.best_cost());
    makespan += static_cast<double>(p.makespan);
  }
  return cost / makespan;
}

/// Per-layer probes on the workload's own game.
template <ers::Game G>
void probe_game_layers(SpanLog& log, Metrics& m,
                       const std::vector<ProbeTree<G>>& trees,
                       const std::vector<ers::Value>& values,
                       const std::vector<ers::harness::ExperimentTree>& sim_trees,
                       std::uint64_t seed) {
  Rng rng(stream_seed(seed, 4));
  probe_er_unit(log, m, trees, rng);
  probe_core(log, m, trees, values);
  probe_run_vs_driver(log, m, trees, values);
  std::vector<ers::harness::SerialBaseline> serial;
  for (const auto& t : sim_trees)
    serial.push_back(ers::harness::run_serial_baselines(t));
  probe_sim(log, m, sim_trees, serial, kSimProcessors);
}

int run(const Options& o) {
  const std::uint64_t t_start = now_ns();
  const bool correct = perft_matches();
  Suite suite = o.workload == Workload::kRandomSim ? random_suite_for(o)
                                                   : othello_suite_for(o);
  Tally tally;
  for (int i = 0; i < kWarmupItems && i < static_cast<int>(suite.items.size()); ++i)
    run_pair(suite.items[static_cast<std::size_t>(i)], true, nullptr,
             suite.search_span, tally);
  for (Item& it : suite.items) {
    it.search_nodes.clear();
    it.ab_ms.reserve(kMaxRounds);
    it.search_ms.reserve(kMaxRounds);
    it.search_nodes.reserve(kMaxRounds);
  }
  const double setup_s = static_cast<double>(now_ns() - t_start) / 1e9;

  // Timed rounds.  A traced run alternates traced and untraced rounds, so
  // that it can report what the spans cost.
  SpanLog spans;
  const int min_rounds = o.trace ? 2 : 3;
  double traced_ms = 0, untraced_ms = 0, ab_traced_ms = 0, ab_traced_nodes = 0;
  std::uint64_t ab_traced = 0;
  const std::uint64_t t_loop = now_ns();
  int rounds = 0;
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(o.seconds) * 1'000'000'000ULL;
  while (static_cast<std::size_t>(rounds) < kMaxRounds &&
         (rounds < min_rounds || (o.trace && rounds % 2 != 0) ||
          now_ns() - t_loop < budget_ns)) {
    SpanLog* log = o.trace && rounds % 2 == 0 ? &spans : nullptr;
    ScopedSpan round(log, "workload.round");
    for (std::size_t i = 0; i < suite.items.size(); ++i) {
      Item& it = suite.items[i];
      const PairTimes t =
          run_pair(it, (static_cast<std::size_t>(rounds) + i) % 2 == 0, log,
                   suite.search_span, tally);
      it.ab_ms.push_back(t.ab_ms);
      it.search_ms.push_back(t.search_ms);
      if (log != nullptr) {
        ab_traced_ms += t.ab_ms;
        ab_traced_nodes += static_cast<double>(t.ab_nodes);
        ++ab_traced;
      }
    }
    (log != nullptr ? traced_ms : untraced_ms) +=
        static_cast<double>(round.elapsed_ns()) / 1e6;
    ++rounds;
  }

  // The simulated speedup below is not part of the workload's searches; keep
  // it out of the peak.
  const double peak_rss = peak_rss_mib();
  Metrics m;
  if (!o.trace) {
    double ab_sum = 0, x_sum = 0, nodes = 0;
    for (const Item& it : suite.items) {
      ab_sum += median(it.ab_ms);
      x_sum += median(it.search_ms);
      nodes += median(it.search_nodes);
    }
    const auto n = static_cast<double>(suite.items.size());
    m["speedup_vs_ab"] = {ab_sum / x_sum, "ratio"};
    m["nodes_per_position"] = {nodes / n, "nodes"};
    m["sim_speedup"] = {sim_speedup(sim_trees(suite, o.workload == Workload::kRandomSim
                                                         ? suite.items.size()
                                                         : kSimSpeedupPositions)),
                        "ratio"};
    m["peak_rss_mb"] = {peak_rss, "MiB"};
    m["setup_s"] = {setup_s, "s"};
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu positions x %d rounds, "
                 "alpha-beta %.1f ms, search %.1f ms per suite median\n",
                 o.workload_name.c_str(), static_cast<unsigned long long>(o.seed),
                 suite.items.size(), rounds, ab_sum, x_sum);
  } else {
    m["obs.trace_overhead"] = {traced_ms / untraced_ms, "ratio"};
    m["search.ab_ms"] = {ab_traced_ms / static_cast<double>(ab_traced), "ms"};
    m["search.ab_nodes"] = {ab_traced_nodes / static_cast<double>(ab_traced),
                            "nodes"};

    std::vector<OthelloPosition> othello =
        suite.positions.empty() ? othello_suite(o.seed, kProbePositions)
                                : suite.positions;
    othello.resize(kProbePositions);
    probe_othello_kernels(spans, m, othello);
    probe_randomtree_kernels(
        spans, m, ers::UniformRandomTree(4, 10, stream_seed(o.seed, 5)));
    probe_ttable(spans, m, o.seed);
    probe_abdada(spans, m, othello);
    // The workload's own game: the first tree of each shape, or the first
    // Othello positions.
    const std::vector<ers::harness::ExperimentTree> sim = sim_trees(suite, 3);
    if (o.workload == Workload::kRandomSim) {
      std::vector<ProbeTree<ers::UniformRandomTree>> trees;
      std::vector<ers::Value> values;
      for (std::size_t i = 0; i < sim.size(); ++i) {
        trees.push_back({std::get<ers::UniformRandomTree>(sim[i].game), sim[i].engine});
        values.push_back(*suite.items[i].expected);
      }
      probe_game_layers(spans, m, trees, values, sim, o.seed);
    } else {
      std::vector<ProbeTree<ers::othello::OthelloGame>> trees;
      std::vector<ers::Value> values;
      for (std::size_t i = 0; i < static_cast<std::size_t>(kProbePositions); ++i) {
        trees.push_back({suite.games[i], othello_config()});
        values.push_back(*suite.items[i].reference);
      }
      probe_game_layers(spans, m, trees, values, sim, o.seed);
    }
    std::filesystem::create_directories(o.out);
    const std::string path = o.out + "/spans-" + o.workload_name + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (!spans.write_json(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                   path.c_str());
  }
  print_result(correct, tally, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  return o.reference ? perfbench::compute_reference() : perfbench::run(o);
}
