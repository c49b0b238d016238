// Paper Fig. 24: InfiniBand scalability on the 16-node Topspin cluster.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "n2_s", "n4_s", "n8_s", "n16_s", "speedup_16v2"});
  for (const char* app : {"is", "cg", "mg", "lu", "ft", "s3d50", "s3d150"}) {
    const double t2 = run_app(app, cluster::Net::kInfiniBand, 2);
    const double t4 = run_app(app, cluster::Net::kInfiniBand, 4);
    const double t8 = run_app(app, cluster::Net::kInfiniBand, 8);
    const double t16 = run_app(app, cluster::Net::kInfiniBand, 16);
    t.row()
        .add(std::string(app))
        .add(t2, 2)
        .add(t4, 2)
        .add(t8, 2)
        .add(t16, 2)
        .add(t2 / t16 * 2.0, 2);
  }
  // SP/BT at square counts only: 4 and 16.
  for (const char* app : {"sp", "bt"}) {
    const double t4 = run_app(app, cluster::Net::kInfiniBand, 4);
    const double t16 = run_app(app, cluster::Net::kInfiniBand, 16);
    t.row()
        .add(std::string(app))
        .add(std::string("-"))
        .add(t4, 2)
        .add(std::string("-"))
        .add(t16, 2)
        .add(std::string("-"));
  }
  out.emit("Fig 24: InfiniBand scalability, 16-node Topspin-style cluster "
           "(class B, seconds)",
           t);
  return 0;
}
