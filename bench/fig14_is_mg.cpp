// Paper Fig. 14: IS and MG class-B execution time on 8 nodes.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "IBA_s", "Myri_s", "QSN_s", "paper_IBA", "paper_Myri",
                 "paper_QSN"});
  struct Row { const char* app; double ib, my, qs; };
  const Row rows[] = {Row{"IS", 1.78, 2.89, 2.47}, Row{"MG", 5.81, 6.29, 6.04}};
  const auto secs = sweep_indexed(out, 6, [&](std::size_t i) {
    const std::string app = i / 3 == 0 ? "is" : "mg";
    return run_app(app, kAllNets[i % 3], 8, 1, cluster::Bus::kDefault,
                   out.faults);
  });
  for (std::size_t r = 0; r < 2; ++r) {
    t.row()
        .add(std::string(rows[r].app))
        .add(secs[r * 3 + 0], 2)
        .add(secs[r * 3 + 1], 2)
        .add(secs[r * 3 + 2], 2)
        .add(rows[r].ib, 2)
        .add(rows[r].my, 2)
        .add(rows[r].qs, 2);
  }
  out.emit("Fig 14: IS and MG on 8 nodes (class B, seconds)", t);
  return 0;
}
