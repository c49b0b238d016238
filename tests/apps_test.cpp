// Application kernels: real-mode numerics verify; skeleton mode runs the
// class-B message schedule; both modes and all networks complete.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"

namespace {

using namespace mns;
using apps::AppResult;
using apps::Mode;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using sim::Task;

AppResult run_app_on(const apps::AppSpec& spec, Net net, std::size_t nodes,
                     int ppn, Mode mode, bool test_size = true) {
  ClusterConfig cfg{.nodes = nodes, .ppn = ppn, .net = net};
  Cluster c(cfg);
  std::vector<AppResult> results(static_cast<std::size_t>(c.ranks()));
  c.run([&](Comm& comm) -> Task<> {
    auto& fn = test_size ? spec.run_test : spec.run_full;
    results[static_cast<std::size_t>(comm.rank())] =
        co_await fn(comm, mode);
  });
  return results[0];
}

class RealApps : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(All, RealApps,
                         ::testing::Values("is", "cg", "mg", "ft", "lu",
                                           "sp", "bt", "s3d50"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(RealApps, VerifiesOn4RanksIB) {
  const auto& spec = apps::find_app(GetParam());
  ASSERT_TRUE(spec.ranks_ok(4));
  const AppResult r = run_app_on(spec, Net::kInfiniBand, 4, 1, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
  EXPECT_GT(r.app_seconds, 0.0);
}

TEST_P(RealApps, VerifiesOnMyrinet) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult r = run_app_on(spec, Net::kMyrinet, 4, 1, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(RealApps, VerifiesOnQuadrics) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult r = run_app_on(spec, Net::kQuadrics, 4, 1, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(RealApps, VerifiesInSmpMode) {
  // 8 ranks as 2-per-node on 4 nodes: exercises the intra-node paths.
  const auto& spec = apps::find_app(GetParam());
  if (!spec.ranks_ok(8)) GTEST_SKIP() << "needs different rank count";
  const AppResult r = run_app_on(spec, Net::kInfiniBand, 4, 2, Mode::kReal);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(RealApps, NetworkInvariantNumerics) {
  // The numeric answer must not depend on the interconnect.
  const auto& spec = apps::find_app(GetParam());
  const AppResult a = run_app_on(spec, Net::kInfiniBand, 4, 1, Mode::kReal);
  const AppResult b = run_app_on(spec, Net::kQuadrics, 4, 1, Mode::kReal);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum) << GetParam();
}

TEST_P(RealApps, SkeletonModeCompletes) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult r =
      run_app_on(spec, Net::kInfiniBand, 4, 1, Mode::kSkeleton);
  EXPECT_GT(r.app_seconds, 0.0);
}

TEST_P(RealApps, SkeletonDeterministic) {
  const auto& spec = apps::find_app(GetParam());
  const AppResult a =
      run_app_on(spec, Net::kMyrinet, 4, 1, Mode::kSkeleton);
  const AppResult b =
      run_app_on(spec, Net::kMyrinet, 4, 1, Mode::kSkeleton);
  EXPECT_DOUBLE_EQ(a.app_seconds, b.app_seconds) << GetParam();
}

TEST(AppsMisc, EightRankRealRuns) {
  for (const char* name : {"is", "cg", "mg", "ft", "lu", "s3d50"}) {
    const auto& spec = apps::find_app(name);
    ASSERT_TRUE(spec.ranks_ok(8)) << name;
    const AppResult r =
        run_app_on(spec, Net::kInfiniBand, 8, 1, Mode::kReal);
    EXPECT_TRUE(r.verified) << name;
  }
}

TEST(AppsMisc, RankConstraints) {
  EXPECT_TRUE(apps::find_app("sp").ranks_ok(4));
  EXPECT_FALSE(apps::find_app("sp").ranks_ok(8));
  EXPECT_TRUE(apps::find_app("cg").ranks_ok(8));
  EXPECT_FALSE(apps::find_app("cg").ranks_ok(6));
  EXPECT_TRUE(apps::find_app("is").ranks_ok(7));
  EXPECT_THROW(apps::find_app("nope"), std::invalid_argument);
}

TEST(AppsMisc, CgSkeletonTouchesOnlyTheKernelsBuffers) {
  // A skeleton CG rank hands MPI six buffers and no others: the two psum
  // exchange doubles, the send/receive pair of the row-sum exchange and
  // that of the column gather. A buffer that lives in a coroutine frame
  // would show up as a new buffer whenever the frame pool returns a
  // different block — and Quadrics' NIC-MMU timing would follow it.
  const auto& spec = apps::find_app("cg");
  ClusterConfig cfg{.nodes = 8, .ppn = 1, .net = Net::kQuadrics};
  Cluster c(cfg);
  c.run([&](Comm& comm) -> Task<> {
    co_await spec.run_test(comm, Mode::kSkeleton);
  });
  for (int r = 0; r < c.ranks(); ++r) {
    const auto& st = c.recorder().rank(r);
    EXPECT_EQ(st.buffer_accesses - st.buffer_reuses, 6u) << "rank " << r;
  }
}

TEST(AppsMisc, BandwidthBoundAppFavorsInfiniBand) {
  // Class-B IS moves multi-MB alltoallv payloads: InfiniBand's 3.5x
  // bandwidth advantage must show up in simulated execution time
  // (paper Fig. 14: IS is IB's biggest win).
  const auto& spec = apps::find_app("is");
  const AppResult ib = run_app_on(spec, Net::kInfiniBand, 8, 1,
                                  Mode::kSkeleton, /*test_size=*/false);
  const AppResult my = run_app_on(spec, Net::kMyrinet, 8, 1,
                                  Mode::kSkeleton, /*test_size=*/false);
  EXPECT_GT(my.app_seconds, ib.app_seconds * 1.15);
}

}  // namespace
