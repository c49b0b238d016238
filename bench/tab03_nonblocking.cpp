#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

// Paper Table 3: non-blocking MPI usage per application.
int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "isend", "isend_avg", "irecv", "irecv_avg",
                 "paper_isend", "paper_isend_avg", "paper_irecv",
                 "paper_irecv_avg"});
  struct Row { const char* app; std::size_t nodes; long p[4]; };
  const Row rows[] = {
      {"is", 8, {0, 0, 0, 0}},
      {"cg", 8, {0, 0, 13984, 63591}},
      {"mg", 8, {0, 0, 2922, 270400}},
      {"lu", 8, {0, 0, 508, 311692}},
      {"ft", 8, {0, 0, 0, 0}},
      {"sp", 4, {4818, 263970, 4818, 263970}},
      {"bt", 4, {2418, 293108, 2418, 293108}},
      {"s3d50", 8, {0, 0, 0, 0}},
      {"s3d150", 8, {0, 0, 0, 0}},
  };
  const auto runs = sweep_indexed(out, std::size(rows), [&](std::size_t i) {
    return profile_app(rows[i].app, rows[i].nodes);
  });
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const auto& r = rows[i];
    const prof::RankStats& st = runs[i].busiest;
    const auto avg = [](std::uint64_t bytes, std::uint64_t n) {
      return n ? bytes / n : 0;
    };
    t.row()
        .add(std::string(r.app))
        .add(st.isend_calls)
        .add(avg(st.isend_bytes, st.isend_calls))
        .add(st.irecv_calls)
        .add(avg(st.irecv_bytes, st.irecv_calls))
        .add(static_cast<std::uint64_t>(r.p[0]))
        .add(static_cast<std::uint64_t>(r.p[1]))
        .add(static_cast<std::uint64_t>(r.p[2]))
        .add(static_cast<std::uint64_t>(r.p[3]));
  }
  out.emit("Table 3: non-blocking MPI calls (busiest rank; sizes in bytes)",
           t);
  return 0;
}
