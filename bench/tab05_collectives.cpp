#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 5: collective usage per application.
int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "coll_calls", "pct_calls", "pct_volume",
                 "paper_calls", "paper_pct_calls", "paper_pct_vol"});
  struct Row { const char* app; std::size_t nodes; double p[3]; };
  const Row rows[] = {
      {"is", 8, {35, 97.22, 100.00}}, {"cg", 8, {2, 0.01, 0.00}},
      {"mg", 8, {101, 1.70, 0.03}},   {"lu", 8, {18, 0.02, 0.00}},
      {"ft", 8, {47, 100.00, 100.00}},{"sp", 4, {11, 0.09, 0.02}},
      {"bt", 4, {11, 0.22, 0.01}},    {"s3d50", 8, {39, 0.20, 0.00}},
      {"s3d150", 8, {39, 0.07, 0.00}},
  };
  const auto runs = sweep_indexed(out, std::size(rows), [&](std::size_t i) {
    return profile_app(rows[i].app, rows[i].nodes);
  });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& r = rows[i];
    const prof::RankStats& st = runs[i].busiest;
    const double pct_calls =
        st.mpi_calls ? 100.0 * static_cast<double>(st.collective_calls) /
                           static_cast<double>(st.mpi_calls)
                     : 0.0;
    const double pct_vol =
        st.total_bytes ? 100.0 * static_cast<double>(st.collective_bytes) /
                             static_cast<double>(st.total_bytes)
                       : 0.0;
    t.row()
        .add(std::string(r.app))
        .add(st.collective_calls)
        .add(pct_calls, 2)
        .add(pct_vol, 2)
        .add(r.p[0], 0)
        .add(r.p[1], 2)
        .add(r.p[2], 2);
  }
  out.emit("Table 5: MPI collective usage (busiest rank)", t);
  return 0;
}
