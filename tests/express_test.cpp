// Property tests for the express message path: it is an optimization of
// the simulator, never of the simulated machine. With express enabled the
// fabric applies a message's whole packet trajectory in closed form when
// it can prove exclusive occupancy, and demotes back to packet granularity
// when a competitor lands — so every observable of a run must be
// bit-identical to the same run with express disabled: per-message
// completion instants, the final simulated clock, and every pipe's
// bytes/transfers/busy-time counters, under randomized multi-sender
// contention on all three fabric models (including the shared-processor
// ones) and on the fat-tree topology.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "elan/elan_fabric.hpp"
#include "gm/gm_fabric.hpp"
#include "ib/ib_fabric.hpp"
#include "model/netfabric.hpp"
#include "model/node_hw.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace mns;
using sim::Time;

enum class FabKind { kIb, kIbFatTree, kGm, kElan };

struct MsgRec {
  Time local;
  Time remote;
  bool local_done = false;
  bool remote_done = false;
};

struct RunResult {
  std::vector<MsgRec> msgs;
  Time final_now;
  std::uint64_t delivered = 0;
  std::uint64_t express_msgs = 0;
  std::uint64_t demotions = 0;
  std::vector<std::array<std::uint64_t, 2>> pipe_counts;  // bytes, transfers
  std::vector<Time> pipe_busy;
};

struct TrafficCfg {
  std::size_t nodes;
  int messages;
  std::uint64_t seed;
  Time spread;  // post instants drawn uniformly from [0, spread)
};

std::unique_ptr<model::NetFabric> make_fabric(
    FabKind kind, sim::Engine& eng, std::vector<model::NodeHw*>& nodes) {
  const std::size_t n = nodes.size();
  switch (kind) {
    case FabKind::kIb:
      return std::make_unique<ib::IbFabric>(eng, nodes,
                                            ib::default_ib_config(n));
    case FabKind::kIbFatTree: {
      auto cfg = ib::default_ib_config(n);
      cfg.switch_cfg.fat_tree_radix = 2;
      return std::make_unique<ib::IbFabric>(eng, nodes, cfg);
    }
    case FabKind::kGm:
      return std::make_unique<gm::GmFabric>(eng, nodes,
                                            gm::default_gm_config(n));
    case FabKind::kElan:
      return std::make_unique<elan::ElanFabric>(eng, nodes,
                                                elan::default_elan_config(n));
  }
  return nullptr;
}

RunResult run_traffic(FabKind kind, const TrafficCfg& cfg, bool express) {
  sim::Engine eng;
  std::vector<std::unique_ptr<model::NodeHw>> owned;
  std::vector<model::NodeHw*> nodes;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    owned.push_back(std::make_unique<model::NodeHw>(
        eng, model::pcix_133(), model::xeon_2003_memcpy()));
    nodes.push_back(owned.back().get());
  }
  auto fab = make_fabric(kind, eng, nodes);
  fab->set_express(express);

  RunResult res;
  res.msgs.resize(static_cast<std::size_t>(cfg.messages));
  // Same seed for the on/off runs => identical traffic.
  util::Rng rng(cfg.seed);
  static constexpr std::uint64_t kSizes[] = {
      0, 1, 64, 1500, 4096, 64 << 10, 300 << 10};
  for (int i = 0; i < cfg.messages; ++i) {
    model::NetMsg m;
    m.src = static_cast<int>(rng.below(cfg.nodes));
    m.dst = static_cast<int>(rng.below(cfg.nodes));  // loopback included
    m.bytes = kSizes[rng.below(std::size(kSizes))];
    m.src_addr = 0x10000 + (rng.below(64) << 12);
    // Half NIC-buffer deliveries, half host-addressed (the latter walk the
    // destination MMU on Quadrics and are vetoed off the express path).
    m.dst_addr = rng.below(2) == 0 ? 0 : 0x2000000 + (rng.below(64) << 12);
    m.complete_on_delivery = rng.below(2) != 0;
    const Time at = Time::ns(static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(cfg.spread.count_ps() / 1000) + 1)));
    MsgRec& rec = res.msgs[static_cast<std::size_t>(i)];
    m.local_complete = [&eng, &rec] {
      rec.local = eng.now();
      rec.local_done = true;
    };
    m.remote_arrival = [&eng, &rec] {
      rec.remote = eng.now();
      rec.remote_done = true;
    };
    eng.after(at, [f = fab.get(), m = std::move(m)]() mutable {
      f->post(std::move(m));
    });
  }
  eng.run();

  res.final_now = eng.now();
  res.delivered = fab->messages_delivered();
  res.express_msgs = fab->express_messages();
  res.demotions = fab->express_demotions();
  std::vector<model::Pipe*> pipes;
  fab->collect_pipes(pipes);
  for (model::Pipe* p : pipes) {
    res.pipe_counts.push_back({p->bytes_moved(), p->transfers()});
    res.pipe_busy.push_back(p->busy_time());
  }
  return res;
}

void expect_identical(const RunResult& on, const RunResult& off) {
  ASSERT_EQ(on.msgs.size(), off.msgs.size());
  for (std::size_t i = 0; i < on.msgs.size(); ++i) {
    EXPECT_EQ(on.msgs[i].local_done, off.msgs[i].local_done) << "msg " << i;
    EXPECT_EQ(on.msgs[i].remote_done, off.msgs[i].remote_done) << "msg " << i;
    EXPECT_EQ(on.msgs[i].local.count_ps(), off.msgs[i].local.count_ps())
        << "msg " << i << " local completion diverged";
    EXPECT_EQ(on.msgs[i].remote.count_ps(), off.msgs[i].remote.count_ps())
        << "msg " << i << " delivery diverged";
  }
  EXPECT_EQ(on.final_now.count_ps(), off.final_now.count_ps());
  EXPECT_EQ(on.delivered, off.delivered);
  ASSERT_EQ(on.pipe_counts.size(), off.pipe_counts.size());
  for (std::size_t i = 0; i < on.pipe_counts.size(); ++i) {
    EXPECT_EQ(on.pipe_counts[i][0], off.pipe_counts[i][0])
        << "pipe " << i << " bytes_moved diverged";
    EXPECT_EQ(on.pipe_counts[i][1], off.pipe_counts[i][1])
        << "pipe " << i << " transfers diverged";
    EXPECT_EQ(on.pipe_busy[i].count_ps(), off.pipe_busy[i].count_ps())
        << "pipe " << i << " busy_time diverged";
  }
}

struct Scenario {
  const char* name;
  FabKind kind;
  TrafficCfg cfg;
};

// Without this gtest prints the parameter as raw bytes, the first of them
// the `name` pointer, and ctest registers that text as part of the test
// name; under ASLR the names would change from one test discovery to the
// next.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class ExpressEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(ExpressEquivalence, BitIdenticalToPacketPath) {
  const Scenario& s = GetParam();
  const RunResult on = run_traffic(s.kind, s.cfg, /*express=*/true);
  const RunResult off = run_traffic(s.kind, s.cfg, /*express=*/false);
  expect_identical(on, off);
  EXPECT_EQ(off.express_msgs, 0u);
  EXPECT_EQ(off.demotions, 0u);
  // Sparse schedules must actually exercise the express path; dense ones
  // must exercise demotion. Both counters are deterministic.
  if (s.cfg.spread >= Time::us(400)) {
    EXPECT_GT(on.express_msgs, 0u) << "express path never taken";
  }
}

TEST_P(ExpressEquivalence, ExpressRunIsDeterministic) {
  const Scenario& s = GetParam();
  const RunResult a = run_traffic(s.kind, s.cfg, /*express=*/true);
  const RunResult b = run_traffic(s.kind, s.cfg, /*express=*/true);
  expect_identical(a, b);
  EXPECT_EQ(a.express_msgs, b.express_msgs);
  EXPECT_EQ(a.demotions, b.demotions);
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, ExpressEquivalence,
    ::testing::Values(
        // Sparse: posts spread out, most messages run the full express
        // window. Dense: heavy overlap, frequent demotions.
        Scenario{"IbSparse", FabKind::kIb, {4, 48, 0xA11CE, Time::us(800)}},
        Scenario{"IbDense", FabKind::kIb, {4, 48, 0xB0B, Time::us(20)}},
        Scenario{"IbFatTreeSparse", FabKind::kIbFatTree,
                 {8, 48, 0xC3C3, Time::us(800)}},
        Scenario{"IbFatTreeDense", FabKind::kIbFatTree,
                 {8, 48, 0xD4D4, Time::us(20)}},
        Scenario{"GmSparse", FabKind::kGm, {4, 48, 0xE5E5, Time::us(800)}},
        Scenario{"GmDense", FabKind::kGm, {4, 48, 0xF6F6, Time::us(20)}},
        Scenario{"ElanSparse", FabKind::kElan,
                 {4, 48, 0x1717, Time::us(800)}},
        Scenario{"ElanDense", FabKind::kElan, {4, 48, 0x1818, Time::us(20)}}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// Deterministic fan-in: a second sender's packet-path reservation lands
// inside the first sender's claimed express window, so the first flow must
// demote — and timing must still match the packet path exactly.
TEST(ExpressDemotion, FanInDemotesAndStaysBitIdentical) {
  for (const FabKind kind :
       {FabKind::kIb, FabKind::kGm, FabKind::kElan}) {
    auto run = [&](bool express) {
      sim::Engine eng;
      std::vector<std::unique_ptr<model::NodeHw>> owned;
      std::vector<model::NodeHw*> nodes;
      for (int i = 0; i < 3; ++i) {
        owned.push_back(std::make_unique<model::NodeHw>(
            eng, model::pcix_133(), model::xeon_2003_memcpy()));
        nodes.push_back(owned.back().get());
      }
      auto fab = make_fabric(kind, eng, nodes);
      fab->set_express(express);
      std::array<Time, 2> arrive{};
      for (int s = 0; s < 2; ++s) {
        model::NetMsg m;
        m.src = s;
        m.dst = 2;
        m.bytes = 256 << 10;  // long window: the overlap is guaranteed
        m.src_addr = 0x40000;
        m.remote_arrival = [&eng, &arrive, s] { arrive[s] = eng.now(); };
        eng.after(Time::us(s == 0 ? 0 : 10),
                  [f = fab.get(), m = std::move(m)]() mutable {
                    f->post(std::move(m));
                  });
      }
      eng.run();
      return std::tuple{arrive[0], arrive[1], fab->express_demotions()};
    };
    const auto [a0, a1, demoted] = run(true);
    const auto [b0, b1, off_demoted] = run(false);
    EXPECT_EQ(a0.count_ps(), b0.count_ps());
    EXPECT_EQ(a1.count_ps(), b1.count_ps());
    EXPECT_GT(demoted, 0u) << "fan-in failed to demote the express flow";
    EXPECT_EQ(off_demoted, 0u);
  }
}

// Zero-byte messages ride the same machinery (one header-only packet).
TEST(ExpressZeroByte, HeaderOnlyMessagesMatch) {
  for (const FabKind kind :
       {FabKind::kIb, FabKind::kGm, FabKind::kElan}) {
    const TrafficCfg cfg{2, 16, 0x0B17E5, Time::us(300)};
    auto zero_traffic = [&](bool express) {
      sim::Engine eng;
      std::vector<std::unique_ptr<model::NodeHw>> owned;
      std::vector<model::NodeHw*> nodes;
      for (std::size_t i = 0; i < cfg.nodes; ++i) {
        owned.push_back(std::make_unique<model::NodeHw>(
            eng, model::pcix_133(), model::xeon_2003_memcpy()));
        nodes.push_back(owned.back().get());
      }
      auto fab = make_fabric(kind, eng, nodes);
      fab->set_express(express);
      std::vector<Time> arrive(static_cast<std::size_t>(cfg.messages));
      util::Rng rng(cfg.seed);
      for (int i = 0; i < cfg.messages; ++i) {
        model::NetMsg m;
        m.src = i % 2;
        m.dst = 1 - i % 2;
        m.bytes = 0;
        Time& slot = arrive[static_cast<std::size_t>(i)];
        m.remote_arrival = [&eng, &slot] { slot = eng.now(); };
        eng.after(Time::us(static_cast<std::int64_t>(rng.below(300))),
                  [f = fab.get(), m = std::move(m)]() mutable {
                    f->post(std::move(m));
                  });
      }
      eng.run();
      return std::pair{arrive, fab->express_messages()};
    };
    const auto [on, on_express] = zero_traffic(true);
    const auto [off, off_express] = zero_traffic(false);
    for (std::size_t i = 0; i < on.size(); ++i) {
      EXPECT_EQ(on[i].count_ps(), off[i].count_ps()) << "msg " << i;
    }
    EXPECT_GT(on_express, 0u);
    EXPECT_EQ(off_express, 0u);
  }
}

}  // namespace
