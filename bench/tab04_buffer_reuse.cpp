#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 4: application buffer reuse rates.
int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "reuse_pct", "wt_reuse_pct", "paper_reuse",
                 "paper_wt_reuse"});
  struct Row { const char* app; std::size_t nodes; double p[2]; };
  const Row rows[] = {
      {"is", 8, {81.08, 27.40}},    {"cg", 8, {99.99, 99.98}},
      {"mg", 8, {99.80, 99.83}},    {"lu", 8, {99.99, 99.80}},
      {"ft", 8, {86.00, 91.30}},    {"sp", 4, {99.92, 99.89}},
      {"bt", 4, {99.87, 99.83}},    {"s3d50", 8, {99.96, 99.99}},
      {"s3d150", 8, {99.99, 99.99}},
  };
  const auto runs = sweep_indexed(out, std::size(rows), [&](std::size_t i) {
    return profile_app(rows[i].app, rows[i].nodes);
  });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& r = rows[i];
    const prof::RankStats& st = runs[i].totals;
    const double pct = st.buffer_accesses
                           ? 100.0 * static_cast<double>(st.buffer_reuses) /
                                 static_cast<double>(st.buffer_accesses)
                           : 0.0;
    const double wt = st.buffer_bytes
                          ? 100.0 * static_cast<double>(st.buffer_reuse_bytes) /
                                static_cast<double>(st.buffer_bytes)
                          : 0.0;
    t.row()
        .add(std::string(r.app))
        .add(pct, 2)
        .add(wt, 2)
        .add(r.p[0], 2)
        .add(r.p[1], 2);
  }
  out.emit("Table 4: buffer reuse rate (all ranks; percentage of MPI "
           "buffer handles previously seen)",
           t);
  return 0;
}
