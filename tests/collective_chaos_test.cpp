// Fault-aware collectives chaos matrix.
//
// The tentpole property of the fail-stop model at the MPI layer: for any
// collective, any fabric and any fail-stop or transient plan, (a) every
// rank returns from the collective — no hang, every underlying message
// delivered, errored or aborted — and (b) after the error-agreement
// epilogue all live ranks report the SAME Comm::last_error() for the
// run's final collective. Digests are bit-identical across reruns and
// across --jobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "mpi/comm.hpp"
#include "sweep/sweep_runner.hpp"

using namespace mns;

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::uint64_t kBytes = 4 << 10;
constexpr int kRounds = 3;

// Seed -> plan: even seeds are fail-stop (a directed link or a whole NIC
// dies early in the run), odd seeds are the transient mixes the pre-
// fail-stop chaos suite already exercises (and must keep bit-identical).
fault::FaultPlan coll_plan(std::uint64_t seed) {
  fault::FaultPlan p(seed);
  if (seed % 2 == 0) {
    const auto at = sim::Time::us(static_cast<std::int64_t>(seed % 7) * 10);
    if (seed % 4 == 0) {
      const int src = static_cast<int>((seed >> 2) % kNodes);
      const int dst = static_cast<int>(
          (static_cast<std::uint64_t>(src) + 1 + (seed >> 3) % (kNodes - 1)) %
          kNodes);
      p.link_down(src, dst, at);
    } else {
      p.nic_down(static_cast<int>((seed >> 1) % kNodes), at);
    }
  } else {
    p.drop(fault::kAnyNode, fault::kAnyNode,
           0.03 + 0.01 * static_cast<double>(seed % 5));
    if (seed % 3 == 0) p.corrupt(1, 2, 0.10);
  }
  return p;
}

struct Digest {
  std::vector<std::uint64_t> words;
  bool operator==(const Digest&) const = default;
};

// One matrix point: seed selects the collective (bcast / reduce /
// allreduce / barrier / alltoall) and the plan; the collective runs
// kRounds times. Runs on SweepRunner workers, so invariant failures fold
// into the digest's trailing violation count instead of gtest macros.
Digest run_coll(cluster::Net net, std::uint64_t seed) {
  const int kind = static_cast<int>(seed % 5);
  cluster::ClusterConfig cfg{.nodes = kNodes, .net = net};
  cfg.faults = coll_plan(seed);
  cluster::Cluster c(cfg);
  const auto ranks = static_cast<std::size_t>(c.ranks());
  std::vector<std::vector<int>> errs(ranks);
  std::vector<sim::Time> finished(ranks);
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const auto r = static_cast<unsigned>(comm.rank());
    // Fixed synthetic addresses: real heap addresses would vary between
    // runs and perturb pin-down cache behaviour (and with it simulated
    // time), breaking the bit-identity assertions below.
    const mpi::View buf = mpi::View::synth(0x40000u + (r << 16), kBytes);
    const mpi::View scratch = mpi::View::synth(0x400000u + (r << 16), kBytes);
    for (int round = 0; round < kRounds; ++round) {
      switch (kind) {
        case 0:
          // Fixed root: the per-round communication pattern must be
          // identical so the monotonic-visibility invariant below holds.
          co_await comm.bcast(buf, 0);
          break;
        case 1:
          co_await comm.reduce(buf, kBytes / 8, mpi::Dtype::kInt64,
                               mpi::ROp::kSum, 0);
          break;
        case 2:
          co_await comm.allreduce(buf, kBytes / 8, mpi::Dtype::kInt64,
                                  mpi::ROp::kMax);
          break;
        case 3:
          co_await comm.barrier();
          break;
        default:
          co_await comm.alltoall(buf, scratch, kBytes / kNodes);
          break;
      }
      errs[r].push_back(comm.last_error());
    }
    finished[r] = comm.now();
  });

  model::NetFabric& fab = c.fabric();
  std::uint64_t violations = 0;
  Digest d;
  for (const auto& rank_errs : errs) {
    if (rank_errs.size() != kRounds) ++violations;
    for (const int e : rank_errs) {
      // Delivered-or-errored: the only legal outcomes.
      if (e != mpi::kErrNone && e != mpi::kErrFabric) ++violations;
      d.words.push_back(static_cast<std::uint64_t>(e));
    }
  }
  // Same-error-everywhere. Only fail-stop plans run the agreement
  // epilogue (transient-only plans keep the pre-existing local-error
  // semantics bit-identical), so the unanimity invariants apply to them
  // alone. A permanent fault may first manifest mid-agreement, so the
  // round where errors first appear is allowed to diverge — but every
  // LATER round reuses the same (fixed) communication pattern across the
  // now-known-dead component, so it must be unanimously kErrFabric.
  if (cfg.faults.has_fail_stop()) {
    int first_err_round = kRounds;
    for (const auto& rank_errs : errs) {
      for (int round = 0; round < kRounds; ++round) {
        if (rank_errs[static_cast<std::size_t>(round)] != mpi::kErrNone &&
            round < first_err_round) {
          first_err_round = round;
        }
      }
    }
    for (const auto& rank_errs : errs) {
      // Rounds before the first error are clean by definition of
      // first_err_round; rounds after it must all agree on the error.
      for (int round = first_err_round + 1; round < kRounds; ++round) {
        if (rank_errs[static_cast<std::size_t>(round)] != mpi::kErrFabric) {
          ++violations;
        }
      }
    }
  }
  // Extended conservation law (also enforced by the finalize audit).
  if (fab.messages_posted() != fab.messages_delivered() +
                                   fab.messages_errored() +
                                   fab.messages_aborted()) {
    ++violations;
  }
  if (!cfg.faults.has_fail_stop() && fab.messages_aborted() != 0) {
    ++violations;  // degradation must stay off on transient-only plans
  }
  if (!c.make_audit_report().clean()) ++violations;
  d.words.push_back(fab.messages_posted());
  d.words.push_back(fab.messages_delivered());
  d.words.push_back(fab.messages_errored());
  d.words.push_back(fab.messages_aborted());
  d.words.push_back(fab.links_failed());
  d.words.push_back(fab.degrade_rounds());
  // Per-rank completion times: application-level timestamps are the ones
  // the determinism contract covers, and per-rank is the stronger check.
  for (const sim::Time t : finished) {
    d.words.push_back(static_cast<std::uint64_t>(t.count_ps()));
  }
  d.words.push_back(violations);
  return d;
}

constexpr cluster::Net kAllNets[] = {cluster::Net::kInfiniBand,
                                     cluster::Net::kMyrinet,
                                     cluster::Net::kQuadrics};

std::vector<Digest> run_matrix(int jobs, std::size_t seeds) {
  sweep::SweepRunner runner(jobs);
  return runner.run_indexed(seeds * 3, [&](std::size_t i) {
    return run_coll(kAllNets[i % 3], 1 + i / 3);
  });
}

}  // namespace

// 64 seeds x 3 fabrics x {bcast, reduce, allreduce, barrier, alltoall} x
// {fail-stop, transient}: every point terminates delivered-or-errored
// with a unanimous final verdict and a balanced conservation law.
TEST(CollectiveChaos, SweepOf64SeedsCompletesDeliveredOrErrored) {
  constexpr std::size_t kSeeds = 64;
  const std::vector<Digest> pts = run_matrix(4, kSeeds);
  ASSERT_EQ(pts.size(), kSeeds * 3);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_FALSE(pts[i].words.empty());
    EXPECT_EQ(pts[i].words.back(), 0u)
        << "invariant violations at point " << i << " (net " << i % 3
        << ", seed " << 1 + i / 3 << ", collective "
        << (1 + i / 3) % 5 << ")";
  }
}

// A slice of the matrix rerun serially and at --jobs=4 must be
// bit-identical (faulted collective runs are as deterministic as clean
// ones).
TEST(CollectiveChaos, RerunsAreBitIdentical) {
  constexpr std::size_t kSeeds = 12;
  const std::vector<Digest> serial = run_matrix(1, kSeeds);
  const std::vector<Digest> rerun = run_matrix(1, kSeeds);
  const std::vector<Digest> threaded = run_matrix(4, kSeeds);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], rerun[i]) << "rerun diverged at point " << i;
    EXPECT_EQ(serial[i], threaded[i]) << "--jobs diverged at point " << i;
  }
}

// One point in detail on the main thread (readable failures): a NIC that
// dies mid-run stalls every collective tree it sits on, and after the
// agreement epilogue every rank — including the ranks that could still
// talk to each other — reports the same kErrFabric for later rounds.
TEST(CollectiveChaos, DeadNicSurfacesTheSameErrorOnEveryRank) {
  cluster::ClusterConfig cfg{.nodes = kNodes,
                             .net = cluster::Net::kInfiniBand};
  cfg.faults = fault::FaultPlan(21).nic_down(3, sim::Time::us(5));
  cluster::Cluster c(cfg);
  std::vector<std::vector<int>> errs(kNodes);
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const mpi::View buf = mpi::View::synth(
        0x40000u + (static_cast<unsigned>(comm.rank()) << 16), kBytes);
    for (int round = 0; round < 4; ++round) {
      co_await comm.allreduce(buf, kBytes / 8, mpi::Dtype::kInt64,
                              mpi::ROp::kSum);
      errs[static_cast<std::size_t>(comm.rank())].push_back(
          comm.last_error());
    }
  });
  for (std::size_t r = 0; r < kNodes; ++r) {
    ASSERT_EQ(errs[r].size(), 4u);
    // Final round: the death long since surfaced, every rank agrees.
    EXPECT_EQ(errs[r].back(), mpi::kErrFabric) << "rank " << r;
    // And each rank's verdict sequence matches rank 0's exactly — the
    // agreement epilogue never lets two live ranks disagree on a round.
    EXPECT_EQ(errs[r], errs[0]) << "rank " << r;
  }
  model::NetFabric& fab = c.fabric();
  EXPECT_GE(fab.links_failed(), 1u);
  EXPECT_EQ(fab.messages_posted(),
            fab.messages_delivered() + fab.messages_errored() +
                fab.messages_aborted());
  EXPECT_TRUE(c.make_audit_report().clean())
      << c.make_audit_report().summary();
}
