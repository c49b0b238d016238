#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 6: intra-node point-to-point share with block mapping,
// 16 processes on 8 nodes (SP/BT: 16 on 8 would need square; the paper
// ran them too — we use 4 nodes x 2).
int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "intra_calls", "pct_calls", "pct_volume",
                 "paper_pct_calls", "paper_pct_vol"});
  struct Row { const char* app; std::size_t nodes; double p[2]; };
  const Row rows[] = {
      {"is", 8, {100.00, 100.00}},  {"cg", 8, {42.93, 33.41}},
      {"mg", 8, {16.25, 1.43}},     {"lu", 8, {33.16, 21.89}},
      {"ft", 8, {0.00, 0.00}},      {"sp", 8, {16.41, 16.26}},
      {"bt", 8, {16.31, 16.21}},    {"s3d50", 8, {33.29, 33.11}},
      {"s3d150", 8, {33.32, 33.47}},
  };
  const auto runs = sweep_indexed(out, std::size(rows), [&](std::size_t i) {
    return profile_app(rows[i].app, rows[i].nodes, /*ppn=*/2);
  });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& r = rows[i];
    const prof::RankStats& st = runs[i].totals;
    const double pct_calls =
        st.ptp_calls ? 100.0 * static_cast<double>(st.intra_calls) /
                           static_cast<double>(st.ptp_calls)
                     : 0.0;
    const double pct_vol =
        st.ptp_bytes ? 100.0 * static_cast<double>(st.intra_bytes) /
                           static_cast<double>(st.ptp_bytes)
                     : 0.0;
    t.row()
        .add(std::string(r.app))
        .add(st.intra_calls)
        .add(pct_calls, 2)
        .add(pct_vol, 2)
        .add(r.p[0], 2)
        .add(r.p[1], 2);
  }
  out.emit("Table 6: intra-node point-to-point share, block mapping, 2 "
           "processes per node (all ranks)",
           t);
  return 0;
}
