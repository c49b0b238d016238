// Paper Fig. 25: SMP mode — 16 processes on 8 nodes, block mapping.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "IBA_s", "Myri_s", "QSN_s"});
  for (const char* app : {"is", "cg", "mg", "lu", "ft", "s3d50", "s3d150"}) {
    t.row()
        .add(std::string(app))
        .add(run_app(app, cluster::Net::kInfiniBand, 8, 2), 2)
        .add(run_app(app, cluster::Net::kMyrinet, 8, 2), 2)
        .add(run_app(app, cluster::Net::kQuadrics, 8, 2), 2);
  }
  out.emit("Fig 25: 16 processes on 8 nodes, block mapping (class B, "
           "seconds) | paper: IBA best except MG and Sweep3D-150; QSN hurt "
           "by its intra-node path",
           t);
  return 0;
}
