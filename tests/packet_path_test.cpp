// Regression tests for the fabric packet data path: randomized
// multi-sender traffic, a three-node fan-in and header-only messages on
// all three fabric models (including the shared-processor ones) and on
// the fat-tree topology. Each run is reduced to a digest of every
// observable — per-message local and remote completion instants, the
// final simulated clock, the delivered count, and every pipe's
// bytes/transfers/busy-time counters — and compared with the digest
// recorded for the current model. A change that moves any packet by one
// picosecond shows here; re-record only for an intended model change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
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
  std::vector<std::uint64_t> pipe_words;  // bytes, transfers, busy ps

  /// FNV-1a over every observable, in a fixed order.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t w) {
      for (int i = 0; i < 8; ++i) {
        h ^= (w >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    };
    for (const MsgRec& m : msgs) {
      mix(m.local_done ? 1 : 0);
      mix(m.remote_done ? 1 : 0);
      mix(static_cast<std::uint64_t>(m.local.count_ps()));
      mix(static_cast<std::uint64_t>(m.remote.count_ps()));
    }
    mix(static_cast<std::uint64_t>(final_now.count_ps()));
    mix(delivered);
    for (const std::uint64_t w : pipe_words) mix(w);
    return h;
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

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

struct Post {
  Time at;
  model::NetMsg msg;  // callbacks are filled in by run_posts
};

// Posts every message at its instant on a fresh `nodes`-node fabric, runs
// to quiescence and records the observables.
RunResult run_posts(FabKind kind, std::size_t nodes_n,
                    std::vector<Post> posts) {
  sim::Engine eng;
  std::vector<std::unique_ptr<model::NodeHw>> owned;
  std::vector<model::NodeHw*> nodes;
  for (std::size_t i = 0; i < nodes_n; ++i) {
    owned.push_back(std::make_unique<model::NodeHw>(
        eng, model::pcix_133(), model::xeon_2003_memcpy()));
    nodes.push_back(owned.back().get());
  }
  auto fab = make_fabric(kind, eng, nodes);

  RunResult res;
  res.msgs.resize(posts.size());
  for (std::size_t i = 0; i < posts.size(); ++i) {
    model::NetMsg m = std::move(posts[i].msg);
    MsgRec& rec = res.msgs[i];
    m.local_complete = [&eng, &rec] {
      rec.local = eng.now();
      rec.local_done = true;
    };
    m.remote_arrival = [&eng, &rec] {
      rec.remote = eng.now();
      rec.remote_done = true;
    };
    eng.after(posts[i].at, [f = fab.get(), m = std::move(m)]() mutable {
      f->post(std::move(m));
    });
  }
  eng.run();

  res.final_now = eng.now();
  res.delivered = fab->messages_delivered();
  std::vector<model::Pipe*> pipes;
  fab->collect_pipes(pipes);
  for (model::Pipe* p : pipes) {
    res.pipe_words.push_back(p->bytes_moved());
    res.pipe_words.push_back(p->transfers());
    res.pipe_words.push_back(
        static_cast<std::uint64_t>(p->busy_time().count_ps()));
  }
  return res;
}

struct TrafficCfg {
  std::size_t nodes;
  int messages;
  std::uint64_t seed;
  Time spread;  // post instants drawn uniformly from [0, spread)
};

RunResult run_traffic(FabKind kind, const TrafficCfg& cfg) {
  util::Rng rng(cfg.seed);
  static constexpr std::uint64_t kSizes[] = {
      0, 1, 64, 1500, 4096, 64 << 10, 300 << 10};
  std::vector<Post> posts;
  for (int i = 0; i < cfg.messages; ++i) {
    model::NetMsg m;
    m.src = static_cast<int>(rng.below(cfg.nodes));
    m.dst = static_cast<int>(rng.below(cfg.nodes));  // loopback included
    m.bytes = kSizes[rng.below(std::size(kSizes))];
    m.src_addr = 0x10000 + (rng.below(64) << 12);
    // Half NIC-buffer deliveries, half host-addressed (the latter walk the
    // destination MMU on Quadrics).
    m.dst_addr = rng.below(2) == 0 ? 0 : 0x2000000 + (rng.below(64) << 12);
    m.complete_on_delivery = rng.below(2) != 0;
    const Time at = Time::ns(static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(cfg.spread.count_ps() / 1000) + 1)));
    posts.push_back({at, std::move(m)});
  }
  return run_posts(kind, cfg.nodes, std::move(posts));
}

struct Scenario {
  const char* name;
  FabKind kind;
  TrafficCfg cfg;
  std::uint64_t digest;
};

// Without this gtest prints the parameter as raw bytes, the first of them
// the `name` pointer, and ctest registers that text as part of the test
// name; under ASLR the names would change from one test discovery to the
// next.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class PacketPath : public ::testing::TestWithParam<Scenario> {};

TEST_P(PacketPath, MatchesRecordedDigest) {
  const Scenario& s = GetParam();
  const RunResult r = run_traffic(s.kind, s.cfg);
  EXPECT_EQ(r.delivered, static_cast<std::uint64_t>(s.cfg.messages));
  EXPECT_EQ(hex(r.digest()), hex(s.digest));
}

TEST_P(PacketPath, RunIsDeterministic) {
  const Scenario& s = GetParam();
  EXPECT_EQ(run_traffic(s.kind, s.cfg).digest(),
            run_traffic(s.kind, s.cfg).digest());
}

INSTANTIATE_TEST_SUITE_P(
    AllFabrics, PacketPath,
    ::testing::Values(
        // Sparse: posts spread out, most messages cross an idle fabric.
        // Dense: heavy overlap on every shared stage.
        Scenario{"IbSparse", FabKind::kIb, {4, 48, 0xA11CE, Time::us(800)},
                 0x6cd3bf7432b171d3ULL},
        Scenario{"IbDense", FabKind::kIb, {4, 48, 0xB0B, Time::us(20)},
                 0x71f6507f7a0cde5fULL},
        Scenario{"IbFatTreeSparse", FabKind::kIbFatTree,
                 {8, 48, 0xC3C3, Time::us(800)}, 0x913bd2671ab926f0ULL},
        Scenario{"IbFatTreeDense", FabKind::kIbFatTree,
                 {8, 48, 0xD4D4, Time::us(20)}, 0x13a74e98d396a766ULL},
        Scenario{"GmSparse", FabKind::kGm, {4, 48, 0xE5E5, Time::us(800)},
                 0xe4b9a3da3c33a750ULL},
        Scenario{"GmDense", FabKind::kGm, {4, 48, 0xF6F6, Time::us(20)},
                 0x1615fe54ec1d46ceULL},
        Scenario{"ElanSparse", FabKind::kElan,
                 {4, 48, 0x1717, Time::us(800)}, 0x13f0b59d0d3da41bULL},
        Scenario{"ElanDense", FabKind::kElan, {4, 48, 0x1818, Time::us(20)},
                 0xc7bffc33aad0cb6bULL}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// Deterministic fan-in: two senders stream long messages into one
// receiver, the second starting while the first is still in flight, so
// their packets interleave on the receiver's switch port, rx and bus.
TEST(PacketPathFanIn, MatchesRecordedDigest) {
  const std::pair<FabKind, std::uint64_t> cases[] = {
      {FabKind::kIb, 0x6e3576a275520ed0ULL},
      {FabKind::kGm, 0x4c0ec17625e5005dULL},
      {FabKind::kElan, 0xbb554c4bdb9a5f4cULL}};
  for (const auto& [kind, expected] : cases) {
    std::vector<Post> posts;
    for (int s = 0; s < 2; ++s) {
      model::NetMsg m;
      m.src = s;
      m.dst = 2;
      m.bytes = 256 << 10;  // long window: the overlap is guaranteed
      m.src_addr = 0x40000;
      posts.push_back({Time::us(s == 0 ? 0 : 10), std::move(m)});
    }
    const RunResult r = run_posts(kind, 3, std::move(posts));
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_EQ(hex(r.digest()), hex(expected))
        << "fabric " << static_cast<int>(kind);
  }
}

// Zero-byte messages ride the same machinery (one header-only packet).
TEST(PacketPathZeroByte, MatchesRecordedDigest) {
  const std::pair<FabKind, std::uint64_t> cases[] = {
      {FabKind::kIb, 0x0375e3e6cf3fbe01ULL},
      {FabKind::kGm, 0xcf577d4720599ca2ULL},
      {FabKind::kElan, 0xb1928b5668521cefULL}};
  for (const auto& [kind, expected] : cases) {
    util::Rng rng(0x0B17E5);
    std::vector<Post> posts;
    for (int i = 0; i < 16; ++i) {
      model::NetMsg m;
      m.src = i % 2;
      m.dst = 1 - i % 2;
      m.bytes = 0;
      posts.push_back(
          {Time::us(static_cast<std::int64_t>(rng.below(300))), std::move(m)});
    }
    const RunResult r = run_posts(kind, 2, std::move(posts));
    EXPECT_EQ(r.delivered, 16u);
    EXPECT_EQ(hex(r.digest()), hex(expected))
        << "fabric " << static_cast<int>(kind);
  }
}

}  // namespace
