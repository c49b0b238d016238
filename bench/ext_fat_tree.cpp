// Extension: scalability projection beyond the paper's 16 nodes.
//
// The paper's conclusion raises (but cannot test) how these fabrics
// behave past a single switch. We project InfiniBand class-B application
// times to 32/64 nodes behind a two-level fat tree (leaf radix 8), next
// to the idealized single-crossbar numbers — showing which applications
// feel the uplink oversubscription (alltoall-heavy IS/FT) and which do
// not (nearest-neighbour LU).
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

namespace {

double app_secs(const char* app, std::size_t nodes, std::size_t radix) {
  cluster::ClusterConfig cfg{.nodes = nodes,
                             .net = cluster::Net::kInfiniBand};
  cfg.tweak_ib = [radix](ib::IbConfig& c) {
    c.switch_cfg.fat_tree_radix = radix;
  };
  cluster::Cluster c(cfg);
  const auto& spec = apps::find_app(app);
  apps::AppResult r0;
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    auto r = co_await spec.run_full(comm, apps::Mode::kSkeleton);
    if (comm.rank() == 0) r0 = r;
  });
  return r0.app_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool big = false;
  Output out;
  // CLI boundary: a malformed or unknown flag exits 2 with one clear line.
  const int rc = util::run_cli([&] {
    util::Flags flags(argc, argv);
    big = flags.get_bool("big", false);
    out.csv = flags.get_bool("csv", false);
    flags.reject_unknown();
    return 0;
  });
  if (rc != 0) return rc;
  util::Table t({"app", "nodes", "crossbar_s", "fattree8_s", "penalty_pct"});
  const std::vector<std::size_t> node_counts =
      big ? std::vector<std::size_t>{32, 64} : std::vector<std::size_t>{32};
  // 32 nodes keeps the sweep fast; pass --big for 64-node projections.
  for (const char* app : {"is", "ft", "mg", "lu"}) {
    for (std::size_t nodes : node_counts) {
      const double flat = app_secs(app, nodes, 0);
      const double tree = app_secs(app, nodes, 8);
      t.row()
          .add(std::string(app))
          .add(static_cast<std::uint64_t>(nodes))
          .add(flat, 2)
          .add(tree, 2)
          .add((tree - flat) / flat * 100.0, 1);
    }
  }
  out.emit("Extension: class-B InfiniBand beyond one switch — ideal "
           "crossbar vs 2-level fat tree (leaf radix 8)",
           t);
  return 0;
}
