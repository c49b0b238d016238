// Paper Fig. 17: Sweep3D (inputs 50 and 150) on 8 nodes.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"input", "IBA_s", "Myri_s", "QSN_s", "paper_IBA",
                 "paper_Myri", "paper_QSN"});
  struct Row { const char* app; const char* label; double ib, my, qs; };
  const Row rows[] = {Row{"s3d50", "50", 3.59, 3.57, 4.38},
                      Row{"s3d150", "150", 91.43, 89.66, 95.99}};
  const auto secs = sweep_indexed(out, 6, [&](std::size_t i) {
    return run_app(rows[i / 3].app, kAllNets[i % 3], 8, 1,
                   cluster::Bus::kDefault, out.faults);
  });
  for (std::size_t r = 0; r < 2; ++r) {
    t.row()
        .add(std::string(rows[r].label))
        .add(secs[r * 3 + 0], 2)
        .add(secs[r * 3 + 1], 2)
        .add(secs[r * 3 + 2], 2)
        .add(rows[r].ib, 2)
        .add(rows[r].my, 2)
        .add(rows[r].qs, 2);
  }
  out.emit("Fig 17: Sweep3D on 8 nodes (seconds) | known deviation: the "
           "paper's QSN penalty on input 50 does not reproduce",
           t);
  return 0;
}
