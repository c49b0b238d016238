// Regression tests for the fabric packet data path: randomized
// multi-sender traffic, a three-node fan-in and header-only messages on
// all three fabric models (including the shared-processor ones) and on
// the fat-tree topology. Each run is reduced to a digest of every
// observable — per-message local and remote completion instants, the
// final simulated clock, the delivered count, and every pipe's
// bytes/transfers/busy-time counters — and compared with the digest
// recorded for the current model. A change that moves any packet by one
// picosecond shows here; re-record only for an intended model change.
// The engine's event count is pinned beside each digest: it is host work,
// not an observable, so it may drop when an event that does nothing is
// removed — but only by the exact amount the removal predicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "elan/elan_fabric.hpp"
#include "fault/fault.hpp"
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
  std::uint64_t events = 0;  // engine events run (host work, not digested)
  std::uint32_t mtu = 0;

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

void record_pipes(model::NetFabric& fab, RunResult& res) {
  std::vector<model::Pipe*> pipes;
  fab.collect_pipes(pipes);
  for (model::Pipe* p : pipes) {
    res.pipe_words.push_back(p->bytes_moved());
    res.pipe_words.push_back(p->transfers());
    res.pipe_words.push_back(
        static_cast<std::uint64_t>(p->busy_time().count_ps()));
  }
}

// Posts every message at its instant on a fresh `nodes`-node fabric (with
// the fault plan `faults`, if any), runs to quiescence and records the
// observables.
RunResult run_posts(FabKind kind, std::size_t nodes_n,
                    std::vector<Post> posts, const std::string& faults = "") {
  sim::Engine eng;
  std::vector<std::unique_ptr<model::NodeHw>> owned;
  std::vector<model::NodeHw*> nodes;
  for (std::size_t i = 0; i < nodes_n; ++i) {
    owned.push_back(std::make_unique<model::NodeHw>(
        eng, model::pcix_133(), model::xeon_2003_memcpy()));
    nodes.push_back(owned.back().get());
  }
  auto fab = make_fabric(kind, eng, nodes);
  if (!faults.empty()) fab->set_fault_plan(fault::FaultPlan::parse(faults));

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
  res.events = eng.events_processed();
  res.mtu = fab->nic_config().mtu;
  record_pipes(*fab, res);
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
  std::uint64_t events;
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
  EXPECT_EQ(r.events, s.events);
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
                 0x6cd3bf7432b171d3ULL, 3237},
        Scenario{"IbDense", FabKind::kIb, {4, 48, 0xB0B, Time::us(20)},
                 0x71f6507f7a0cde5fULL, 2997},
        Scenario{"IbFatTreeSparse", FabKind::kIbFatTree,
                 {8, 48, 0xC3C3, Time::us(800)}, 0x913bd2671ab926f0ULL, 5504},
        Scenario{"IbFatTreeDense", FabKind::kIbFatTree,
                 {8, 48, 0xD4D4, Time::us(20)}, 0x13a74e98d396a766ULL, 4517},
        Scenario{"GmSparse", FabKind::kGm, {4, 48, 0xE5E5, Time::us(800)},
                 0xe4b9a3da3c33a750ULL, 5055},
        Scenario{"GmDense", FabKind::kGm, {4, 48, 0xF6F6, Time::us(20)},
                 0x1615fe54ec1d46ceULL, 5775},
        Scenario{"ElanSparse", FabKind::kElan,
                 {4, 48, 0x1717, Time::us(800)}, 0x13f0b59d0d3da41bULL, 3675},
        Scenario{"ElanDense", FabKind::kElan, {4, 48, 0x1818, Time::us(20)},
                 0xc7bffc33aad0cb6bULL, 4978}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

struct Recorded {
  FabKind kind;
  std::uint64_t digest;
  std::uint64_t events;
};

// Deterministic fan-in: two senders stream long messages into one
// receiver, the second starting while the first is still in flight, so
// their packets interleave on the receiver's switch port, rx and bus.
TEST(PacketPathFanIn, MatchesRecordedDigest) {
  const Recorded cases[] = {{FabKind::kIb, 0x6e3576a275520ed0ULL, 651},
                            {FabKind::kGm, 0x4c0ec17625e5005dULL, 659},
                            {FabKind::kElan, 0xbb554c4bdb9a5f4cULL, 661}};
  for (const Recorded& c : cases) {
    std::vector<Post> posts;
    for (int s = 0; s < 2; ++s) {
      model::NetMsg m;
      m.src = s;
      m.dst = 2;
      m.bytes = 256 << 10;  // long window: the overlap is guaranteed
      m.src_addr = 0x40000;
      posts.push_back({Time::us(s == 0 ? 0 : 10), std::move(m)});
    }
    const RunResult r = run_posts(c.kind, 3, std::move(posts));
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_EQ(hex(r.digest()), hex(c.digest))
        << "fabric " << static_cast<int>(c.kind);
    EXPECT_EQ(r.events, c.events) << "fabric " << static_cast<int>(c.kind);
  }
}

// Zero-byte messages ride the same machinery (one header-only packet).
TEST(PacketPathZeroByte, MatchesRecordedDigest) {
  const Recorded cases[] = {{FabKind::kIb, 0x0375e3e6cf3fbe01ULL, 144},
                            {FabKind::kGm, 0xcf577d4720599ca2ULL, 208},
                            {FabKind::kElan, 0xb1928b5668521cefULL, 211}};
  for (const Recorded& c : cases) {
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
    const RunResult r = run_posts(c.kind, 2, std::move(posts));
    EXPECT_EQ(r.delivered, 16u);
    EXPECT_EQ(hex(r.digest()), hex(c.digest))
        << "fabric " << static_cast<int>(c.kind);
    EXPECT_EQ(r.events, c.events) << "fabric " << static_cast<int>(c.kind);
  }
}

// A flap window far past the end of every run below: it arms link 0->1
// for fault handling without ever losing a packet.
constexpr const char* kArmedButSilent = "flap:0-1:1000000:1000001";

// One message of N packets runs exactly N-1 fewer events on a lossless
// link than on a link armed for faults: a lossless flow counts its
// non-final packets down at the receiver NIC, while a faulted flow keeps
// a host-bus event per packet for its retransmit timer to count. Every
// observable is the same either way.
TEST(PacketPathEvents, LosslessFlowSkipsNonFinalBusEvents) {
  constexpr std::uint64_t kBytes = 100000;
  auto one_message = [] {
    model::NetMsg m;
    m.src = 0;
    m.dst = 1;
    m.bytes = kBytes;
    m.dst_addr = 0x2000000;
    std::vector<Post> posts;
    posts.push_back({Time::zero(), std::move(m)});
    return posts;
  };
  for (FabKind kind : {FabKind::kIb, FabKind::kGm, FabKind::kElan}) {
    const RunResult lossless = run_posts(kind, 2, one_message());
    const RunResult armed = run_posts(kind, 2, one_message(), kArmedButSilent);
    // NetFabric's chunk plan: MTU packets, at most 64 per message.
    const std::uint64_t chunk =
        std::max<std::uint64_t>(lossless.mtu, (kBytes + 63) / 64);
    const std::uint64_t n = (kBytes + chunk - 1) / chunk;
    ASSERT_GT(n, 1u);
    EXPECT_EQ(lossless.delivered, 1u);
    EXPECT_EQ(hex(lossless.digest()), hex(armed.digest()))
        << "fabric " << static_cast<int>(kind);
    EXPECT_EQ(armed.events - lossless.events, n - 1)
        << "fabric " << static_cast<int>(kind);
  }
}

// A faulted flow keeps every per-packet bus event: its retransmit timer
// must not resend while packets of the round are still on their way, and
// the bus stage is part of the way. Here the receiver's host bus is slow,
// the first packet is lost, and when the timer fires every other packet
// has left the NIC but still queues for the bus: the timer re-arms
// instead of resending, and the resend waits until the bus stage drains.
TEST(PacketPathFaulted, RtoRearmsWhilePacketsWaitForTheBus) {
  sim::Engine eng;
  model::NodeHw sender(eng, model::pcix_133(), model::xeon_2003_memcpy());
  model::NodeHw receiver(eng, model::BusConfig{"slow", 20e6, Time::ns(120)},
                         model::xeon_2003_memcpy());
  std::vector<model::NodeHw*> nodes{&sender, &receiver};
  auto fab = make_fabric(FabKind::kIb, eng, nodes);
  // Link 0->1 drops every packet put on the wire in the first 8 us: only
  // the first packet, as the dropped count below checks.
  fab->set_fault_plan(fault::FaultPlan::parse("flap:0-1:0:8"));
  MsgRec rec;
  model::NetMsg m;
  m.src = 0;
  m.dst = 1;
  m.bytes = 16 << 10;  // 8 packets, all fetched well before the timer
  m.remote_arrival = [&eng, &rec] {
    rec.remote = eng.now();
    rec.remote_done = true;
  };
  fab->post(std::move(m));

  const Time rto = fab->recovery_config().rto;
  eng.run_until(rto + Time::us(20));  // just past the first timeout
  EXPECT_EQ(fab->packets_dropped(), 1u);
  EXPECT_EQ(fab->packets_retransmitted(), 0u);
  const std::string report = fab->progress_report();
  EXPECT_NE(report.find("pending=7 rto"), std::string::npos) << report;
  std::vector<model::Pipe*> pipes;
  fab->collect_pipes(pipes);
  for (model::Pipe* p : pipes) {
    if (p != &receiver.bus().pipe()) {
      EXPECT_TRUE(p->idle());
    }
  }
  EXPECT_FALSE(receiver.bus().pipe().idle());

  eng.run();
  EXPECT_EQ(fab->messages_delivered(), 1u);
  EXPECT_EQ(fab->packets_retransmitted(), 1u);
  // The resent packet reaches the bus after the seven that waited there.
  EXPECT_TRUE(rec.remote_done);
  EXPECT_GT(rec.remote, receiver.bus().pipe().serialization_time(7 * 2048));
  RunResult r;
  r.msgs.push_back(rec);
  r.final_now = eng.now();
  r.delivered = fab->messages_delivered();
  record_pipes(*fab, r);
  EXPECT_EQ(hex(r.digest()), hex(0x27105684bc285e9aULL));
  EXPECT_EQ(eng.events_processed(), 74u);
}

}  // namespace
