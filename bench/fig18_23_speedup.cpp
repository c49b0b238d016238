// Paper Figs. 18-23: speedups (base = 2 nodes) for IS, CG, MG, LU and
// Sweep3D 50/150 on all three interconnects.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "net", "speedup_4", "speedup_8", "ideal_4",
                 "ideal_8"});
  for (const char* app : {"is", "cg", "mg", "lu", "s3d50", "s3d150"}) {
    for (auto net : kAllNets) {
      const double t2 = run_app(app, net, 2);
      const double t4 = run_app(app, net, 4);
      const double t8 = run_app(app, net, 8);
      t.row()
          .add(std::string(app))
          .add(std::string(cluster::net_name(net)))
          .add(t2 / t4 * 2.0, 2)
          .add(t2 / t8 * 2.0, 2)
          .add(4.0, 0)
          .add(8.0, 0);
    }
  }
  out.emit("Figs 18-23: speedup over 2-node base (x2 = ideal at 4 nodes, "
           "x8 at 8)",
           t);
  return 0;
}
