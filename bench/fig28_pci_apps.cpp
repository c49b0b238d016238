// Paper Fig. 28: NAS class B over InfiniBand, PCI vs PCI-X, plus the
// cross-network comparison the paper draws: with just PCI, InfiniBand
// still beats Myrinet/Quadrics on bandwidth-bound applications.
#include "bench_common.hpp"

using namespace mns;
using namespace mns::bench;

int main(int argc, char** argv) {
  const Output out = parse_output(argc, argv);
  util::Table t({"app", "nodes", "PCIX_s", "PCI_s", "degrade_pct", "Myri_s",
                 "QSN_s"});
  struct Row { const char* app; std::size_t nodes; };
  for (Row r : {Row{"is", 8}, Row{"cg", 8}, Row{"mg", 8}, Row{"lu", 8},
                Row{"ft", 8}, Row{"sp", 4}, Row{"bt", 4}}) {
    const double x =
        run_app(r.app, cluster::Net::kInfiniBand, r.nodes, 1,
                cluster::Bus::kPcix133);
    const double p =
        run_app(r.app, cluster::Net::kInfiniBand, r.nodes, 1,
                cluster::Bus::kPci66);
    t.row()
        .add(std::string(r.app))
        .add(static_cast<std::uint64_t>(r.nodes))
        .add(x, 2)
        .add(p, 2)
        .add((p - x) / x * 100.0, 1)
        .add(run_app(r.app, cluster::Net::kMyrinet, r.nodes), 2)
        .add(run_app(r.app, cluster::Net::kQuadrics, r.nodes), 2);
  }
  out.emit("Fig 28: IBA class B, PCI vs PCI-X (seconds) | paper: average "
           "degradation <5%; IS/FT/CG on PCI still match or beat "
           "Myri/QSN",
           t);
  return 0;
}
