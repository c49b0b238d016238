// Paper Fig. 16: CG and FT class-B execution time on 8 nodes.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "IBA_s", "Myri_s", "QSN_s", "paper_IBA", "paper_Myri",
                 "paper_QSN"});
  struct Row { const char* app; double ib, my, qs; };
  const Row rows[] = {Row{"cg", 28.68, 29.65, 30.12},
                      Row{"ft", 37.92, 41.40, 43.23}};
  const auto secs = sweep_indexed(out, 6, [&](std::size_t i) {
    return run_app(rows[i / 3].app, kAllNets[i % 3], 8, 1,
                   cluster::Bus::kDefault, out.faults);
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
  out.emit("Fig 16: CG and FT on 8 nodes (class B, seconds)", t);
  return 0;
}
