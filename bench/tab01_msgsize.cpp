#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 1: message size distribution per application (busiest rank,
// class B on 8 nodes; SP/BT on 4).
int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "<2K", "2K-16K", "16K-1M", ">1M", "paper_<2K",
                 "paper_2K-16K", "paper_16K-1M", "paper_>1M"});
  struct Row { const char* app; std::size_t nodes; long p[4]; };
  const Row rows[] = {
      {"is", 8, {14, 11, 0, 11}},      {"cg", 8, {16113, 0, 11856, 0}},
      {"mg", 8, {1607, 630, 3702, 0}}, {"lu", 8, {100021, 0, 1008, 0}},
      {"ft", 8, {24, 0, 0, 22}},       {"sp", 4, {9, 0, 9636, 0}},
      {"bt", 4, {9, 0, 4836, 0}},      {"s3d50", 8, {19236, 0, 0, 0}},
      {"s3d150", 8, {28836, 28800, 0, 0}},
  };
  const auto runs = sweep_indexed(out, std::size(rows), [&](std::size_t i) {
    return profile_app(rows[i].app, rows[i].nodes);
  });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& r = rows[i];
    const prof::RankStats& st = runs[i].busiest;
    t.row()
        .add(std::string(r.app))
        .add(st.sent.count_in(0, 2 << 10))
        .add(st.sent.count_in(2 << 10, 16 << 10))
        .add(st.sent.count_in(16 << 10, 1 << 20))
        .add(st.sent.count_in(1 << 20, UINT64_MAX))
        .add(static_cast<std::uint64_t>(r.p[0]))
        .add(static_cast<std::uint64_t>(r.p[1]))
        .add(static_cast<std::uint64_t>(r.p[2]))
        .add(static_cast<std::uint64_t>(r.p[3]));
  }
  out.emit("Table 1: message size distribution (busiest rank; counts "
           "include collective calls, as in the paper's MPICH logging)",
           t);
  return 0;
}
