// Calibration report: every headline micro-benchmark number next to the
// paper's measured value. Run after any model change; the calibration
// test suite asserts the same values within tolerance bands.
#include <cstdio>

#include "microbench/microbench.hpp"
#include "util/flags.hpp"

using namespace mns;
using cluster::Net;
using microbench::Options;

namespace {

double at(const std::vector<microbench::Point>& pts, std::uint64_t size) {
  for (const auto& p : pts) {
    if (p.size == size) return p.value;
  }
  return -1;
}

void row(const char* what, double paper, double ours) {
  std::printf("  %-44s %9.1f %9.1f   %+6.1f%%\n", what, paper, ours,
              paper > 0 ? (ours - paper) / paper * 100.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  // Takes no flags: any --flag exits 2 with one "error:" line.
  const int rc = util::run_cli([&] {
    util::Flags(argc, argv).reject_unknown();
    return 0;
  });
  if (rc != 0) return rc;

  std::printf("%-46s %9s %9s %9s\n", "metric", "paper", "ours", "delta");

  const std::vector<std::uint64_t> small{4};
  const std::vector<std::uint64_t> big{1 << 20};

  row("IBA small latency (us)", 6.8, at(microbench::latency(Net::kInfiniBand, small), 4));
  row("Myri small latency (us)", 6.7, at(microbench::latency(Net::kMyrinet, small), 4));
  row("QSN small latency (us)", 4.6, at(microbench::latency(Net::kQuadrics, small), 4));

  row("IBA peak bandwidth W=16 (MB/s)", 841, at(microbench::bandwidth(Net::kInfiniBand, big), 1 << 20));
  row("Myri peak bandwidth (MB/s)", 235, at(microbench::bandwidth(Net::kMyrinet, big), 1 << 20));
  row("QSN peak bandwidth (MB/s)", 308, at(microbench::bandwidth(Net::kQuadrics, big), 1 << 20));

  row("IBA host overhead (us)", 1.7, at(microbench::host_overhead(Net::kInfiniBand, small), 4));
  row("Myri host overhead (us)", 0.8, at(microbench::host_overhead(Net::kMyrinet, small), 4));
  row("QSN host overhead (us)", 3.3, at(microbench::host_overhead(Net::kQuadrics, small), 4));

  row("IBA bidir latency (us)", 7.0, at(microbench::bidir_latency(Net::kInfiniBand, small), 4));
  row("Myri bidir latency (us)", 10.1, at(microbench::bidir_latency(Net::kMyrinet, small), 4));
  row("QSN bidir latency (us)", 7.4, at(microbench::bidir_latency(Net::kQuadrics, small), 4));

  row("IBA bidir bandwidth (MB/s)", 900, at(microbench::bidir_bandwidth(Net::kInfiniBand, big), 1 << 20));
  row("Myri bidir peak ~64-256K (MB/s)", 473, at(microbench::bidir_bandwidth(Net::kMyrinet, {64 << 10}), 64 << 10));
  row("Myri bidir 1M (MB/s, <340)", 335, at(microbench::bidir_bandwidth(Net::kMyrinet, big), 1 << 20));
  row("QSN bidir bandwidth (MB/s)", 375, at(microbench::bidir_bandwidth(Net::kQuadrics, big), 1 << 20));

  row("IBA intra latency (us)", 1.6, at(microbench::intranode_latency(Net::kInfiniBand, small), 4));
  row("Myri intra latency (us)", 1.3, at(microbench::intranode_latency(Net::kMyrinet, small), 4));
  row("QSN intra latency (us, > inter 4.6)", 6.0, at(microbench::intranode_latency(Net::kQuadrics, small), 4));
  row("IBA intra bandwidth 1M (MB/s)", 450, at(microbench::intranode_bandwidth(Net::kInfiniBand, big), 1 << 20));

  Options coll;
  coll.nodes = 8;
  row("IBA alltoall 4B (us)", 31, at(microbench::alltoall_latency(Net::kInfiniBand, small, coll), 4));
  row("Myri alltoall 4B (us)", 36, at(microbench::alltoall_latency(Net::kMyrinet, small, coll), 4));
  row("QSN alltoall 4B (us)", 67, at(microbench::alltoall_latency(Net::kQuadrics, small, coll), 4));
  row("IBA allreduce 4B (us)", 46, at(microbench::allreduce_latency(Net::kInfiniBand, small, coll), 4));
  row("Myri allreduce 4B (us)", 35, at(microbench::allreduce_latency(Net::kMyrinet, small, coll), 4));
  row("QSN allreduce 4B (us)", 28, at(microbench::allreduce_latency(Net::kQuadrics, small, coll), 4));

  Options pci;
  pci.bus = cluster::Bus::kPci66;
  row("IBA-PCI small latency (us)", 7.4, at(microbench::latency(Net::kInfiniBand, small, pci), 4));
  row("IBA-PCI bandwidth (MB/s)", 378, at(microbench::bandwidth(Net::kInfiniBand, big, pci), 1 << 20));

  const auto mem = microbench::memory_usage(Net::kInfiniBand, 8);
  row("IBA memory 2 nodes (MB)", 25, mem.front().value);
  row("IBA memory 8 nodes (MB)", 55, mem.back().value);

  return 0;
}
