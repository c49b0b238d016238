// Interconnect explorer: sweep any micro-benchmark over a size range on a
// chosen network and bus — the tool you reach for when asking "what would
// this fabric do for my message size?"
//
//   ./build/examples/interconnect_explorer --bench=latency --net=qsn
//   ./build/examples/interconnect_explorer --bench=bandwidth --net=ib
//       --bus=pci --from=1K --to=1M --window=32      (one command line)
//
// Benches: latency, bandwidth, bidir_latency, bidir_bandwidth, overhead,
//          overlap, intra_latency, intra_bandwidth, alltoall, allreduce.
#include <iostream>
#include <string>

#include "microbench/microbench.hpp"
#include "util/bytes.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace mns;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string bench = flags.get("bench", "latency");
  const cluster::Net net = cluster::parse_net(flags.get("net", "ib"));
  const std::string bus_s = flags.get("bus", "default");
  const auto from = flags.get_size("from", 4);
  const auto to = flags.get_size("to", 64 << 10);
  microbench::Options opt;
  opt.window = static_cast<int>(flags.get_int("window", 16));
  opt.nodes = static_cast<std::size_t>(flags.get_int("nodes", 8));
  const int reuse = static_cast<int>(flags.get_int("reuse", 100));
  flags.reject_unknown();

  if (bus_s == "pci") {
    opt.bus = cluster::Bus::kPci66;
  } else if (bus_s == "pcix") {
    opt.bus = cluster::Bus::kPcix133;
  } else if (bus_s != "default") {
    std::cerr << "bad --bus (want default|pci|pcix)\n";
    return 1;
  }

  const auto sizes = util::size_sweep(from, to);
  std::vector<microbench::Point> pts;
  std::string unit;
  if (bench == "latency") {
    pts = microbench::latency(net, sizes, opt);
    unit = "us";
  } else if (bench == "bandwidth") {
    pts = microbench::bandwidth(net, sizes, opt);
    unit = "MB/s";
  } else if (bench == "bidir_latency") {
    pts = microbench::bidir_latency(net, sizes, opt);
    unit = "us";
  } else if (bench == "bidir_bandwidth") {
    pts = microbench::bidir_bandwidth(net, sizes, opt);
    unit = "MB/s";
  } else if (bench == "overhead") {
    pts = microbench::host_overhead(net, sizes, opt);
    unit = "us";
  } else if (bench == "overlap") {
    pts = microbench::overlap_potential(net, sizes, opt);
    unit = "us";
  } else if (bench == "intra_latency") {
    pts = microbench::intranode_latency(net, sizes, opt);
    unit = "us";
  } else if (bench == "intra_bandwidth") {
    pts = microbench::intranode_bandwidth(net, sizes, opt);
    unit = "MB/s";
  } else if (bench == "alltoall") {
    pts = microbench::alltoall_latency(net, sizes, opt);
    unit = "us";
  } else if (bench == "allreduce") {
    pts = microbench::allreduce_latency(net, sizes, opt);
    unit = "us";
  } else if (bench == "reuse_latency") {
    pts = microbench::buffer_reuse_latency(net, sizes, reuse, opt);
    unit = "us";
  } else {
    std::cerr << "unknown --bench '" << bench << "'\n";
    return 1;
  }

  util::Table t({"size", bench + "_" + unit});
  for (const auto& p : pts) {
    t.row().add(util::size_label(p.size)).add(p.value, 2);
  }
  std::cout << bench << " on " << cluster::net_name(net) << " ("
            << opt.nodes << " nodes";
  if (bus_s != "default") std::cout << ", bus " << bus_s;
  std::cout << ")\n";
  t.print(std::cout);
  return 0;
}
