// Ablation of the three speculation mechanisms of paper §5:
//   PR = parallel refutation, ME = multiple e-children, EC = early e-child
//   choice.
// Each row runs parallel ER with a subset of mechanisms enabled; the deltas
// show what each mechanism buys (less starvation) and costs (speculative
// loss), the design tradeoff §5 argues about.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"R3", "O1"});
  bench::print_header("Ablation: speculation mechanisms of ER ( 5)");

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "ablation_speculation");
  TextTable table({"tree", "procs", "PR", "ME", "EC", "speedup", "efficiency",
                   "nodes", "idle share", "spec promotions"});
  for (const auto& name : opt.tree_names) {
    const auto tree = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(tree);
    for (const int p : {4, 16}) {
      for (int mask = 0; mask < 8; ++mask) {
        core::SpeculationConfig spec;
        spec.parallel_refutation = (mask & 1) != 0;
        spec.multiple_e_children = (mask & 2) != 0;
        spec.early_e_child_choice = (mask & 4) != 0;
        if (trace != nullptr) trace->clear();  // keep the last point only
        const auto pt =
            harness::run_parallel_point(tree, p, serial, {}, &spec, trace);
        reg.set("tree", tree.name);
        bench::register_parallel_point(reg, pt);
        const double idle_share =
            static_cast<double>(pt.metrics.idle_time) /
            (static_cast<double>(pt.metrics.makespan) * p);
        table.add_row(
            {tree.name, std::to_string(p), spec.parallel_refutation ? "x" : "-",
             spec.multiple_e_children ? "x" : "-",
             spec.early_e_child_choice ? "x" : "-",
             TextTable::num(pt.speedup, 2), TextTable::num(pt.efficiency, 3),
             std::to_string(pt.nodes_generated), TextTable::num(idle_share, 3),
             std::to_string(pt.engine.promotions_speculative)});
      }
    }
  }
  table.print();
  bench::write_observability(opt, trace, reg, "ablation_speculation");
  return 0;
}
