// Serial-depth sweep (paper §7's contention/starvation discussion): moving
// the cutover deeper creates more, smaller work units — less starvation but
// more shared-heap contention; moving it shallower does the opposite.  The
// paper: "It would be possible to reduce contention by decreasing the serial
// depth, but decreasing the depth would only increase starvation."

#include <variant>

#include "common.hpp"
#include "core/parallel_er.hpp"

int main(int argc, char** argv) {
  using namespace ers;
  const auto opt = bench::parse_options(argc, argv, {"R3", "O1"});
  bench::print_header("Serial-depth sweep: contention vs starvation ( 7)");

  obs::TraceSession session;
  obs::TraceSession* trace = bench::trace_session_for(opt, session);
  obs::MetricsRegistry reg;
  reg.set("bench", "serial_depth");
  TextTable table({"tree", "serial depth", "procs", "units", "speedup",
                   "efficiency", "idle share", "lock share", "nodes"});
  for (const auto& name : opt.tree_names) {
    const auto base = harness::tree_by_name(name, opt.scale);
    const auto serial = harness::run_serial_baselines(base);
    for (int sd = 0; sd <= base.engine.search_depth; ++sd) {
      auto tree = base;
      tree.engine.serial_depth = sd;
      const int p = 16;
      if (trace != nullptr) trace->clear();  // keep the last point only
      const auto pt =
          harness::run_parallel_point(tree, p, serial, {}, nullptr, trace);
      reg.set("tree", tree.name);
      reg.set("serial_depth", sd);
      bench::register_parallel_point(reg, pt);
      const double total = static_cast<double>(pt.metrics.makespan) * p;
      table.add_row({tree.name, std::to_string(sd), std::to_string(p),
                     std::to_string(pt.metrics.units),
                     TextTable::num(pt.speedup, 2),
                     TextTable::num(pt.efficiency, 3),
                     TextTable::num(pt.metrics.idle_time / total, 3),
                     TextTable::num(pt.metrics.lock_wait_time / total, 3),
                     std::to_string(pt.nodes_generated)});
    }
  }
  table.print();
  bench::write_observability(opt, trace, reg, "serial_depth");
  return 0;
}
