// Cluster-level contracts: the `partitions` request is accepted and runs
// on the one sequential engine, and a run's result does not depend on the
// host heap layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "mpi/comm.hpp"
#include "sim/frame_pool.hpp"

namespace {

using namespace mns;

// Ring exchange (one eager + one rendezvous message per rank) reduced to
// the final clock and the fabric's message counters.
std::vector<std::uint64_t> ring_digest(cluster::Cluster& c) {
  c.run([](mpi::Comm& comm) -> sim::Task<void> {
    const auto r = static_cast<unsigned>(comm.rank());
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    for (const std::uint64_t bytes : {512u, 32u << 10}) {
      auto rr = co_await comm.irecv(
          mpi::View::synth(0x400000u + (r << 16), bytes), left, 1);
      auto sr = co_await comm.isend(
          mpi::View::synth(0x800000u + (r << 16), bytes), right, 1);
      co_await comm.wait(rr);
      co_await comm.wait(sr);
    }
  });
  const model::NetFabric& f = c.fabric();
  return {static_cast<std::uint64_t>(c.now().count_ps()),
          f.messages_posted(), f.messages_delivered()};
}

TEST(Cluster, PartitionsRequestRunsSequentially) {
  for (cluster::Net net : {cluster::Net::kInfiniBand, cluster::Net::kMyrinet,
                           cluster::Net::kQuadrics}) {
    cluster::ClusterConfig cfg{.nodes = 8, .net = net};
    cluster::Cluster one(cfg);
    cfg.partitions = 4;
    cluster::Cluster four(cfg);
    EXPECT_EQ(four.effective_partitions(), 1);
    EXPECT_EQ(&four.partition_engine(0), &four.engine());
    EXPECT_EQ(ring_digest(four), ring_digest(one));
  }
}

TEST(Cluster, PartitionsOutsideOneToNodesThrow) {
  for (int parts : {0, 9}) {
    cluster::ClusterConfig cfg{.nodes = 8, .partitions = parts};
    EXPECT_THROW(cluster::Cluster c(cfg), std::invalid_argument) << parts;
  }
}

// CG exchanges its dot-product scalars through View::in(&v, 8) on
// coroutine-frame locals even in skeleton mode, so their host addresses
// reach the Quadrics NIC-MMU model through Mpi::canon. A run must not
// notice where the allocator put those frames: the same cell, rerun after
// the heap and the frame pool were perturbed, gives the same digest.
std::vector<std::uint64_t> cg_qsn_digest() {
  cluster::ClusterConfig cfg{.nodes = 8, .net = cluster::Net::kQuadrics};
  cluster::Cluster c(cfg);
  const auto& cg = apps::find_app("cg");
  std::vector<std::uint64_t> d;
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const apps::AppResult r =
        co_await cg.run_test(comm, apps::Mode::kSkeleton);
    if (comm.rank() == 0) {
      d.push_back(static_cast<std::uint64_t>(r.app_seconds * 1e12));
    }
  });
  d.push_back(static_cast<std::uint64_t>(c.now().count_ps()));
  d.push_back(c.fabric().messages_posted());
  return d;
}

TEST(Cluster, CgOnQuadricsIsIndependentOfHeapLayout) {
  const std::vector<std::uint64_t> first = cg_qsn_digest();
  // Shift the host heap: odd-sized live blocks, and the frame pool's
  // cached frames returned to the allocator.
  std::vector<std::unique_ptr<char[]>> junk;
  for (int i = 0; i < 200; ++i) {
    junk.push_back(std::make_unique<char[]>(24 + 40 * (i % 7)));
  }
  sim::frame_pool::trim();
  EXPECT_EQ(cg_qsn_digest(), first);
}

}  // namespace
