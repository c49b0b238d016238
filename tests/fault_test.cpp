// Chaos harness tests: deterministic fault injection across the three
// fabrics and the per-fabric recovery protocols (IB RC retry, GM
// Go-Back-N, Elan hardware retry).
//
// The load-bearing property is the chaos sweep: >= 64 seeds x 3 fabrics,
// every message either delivers exactly once or completes with
// kErrFabric (never hangs), outcomes are bit-identical across reruns and
// across --jobs settings, and every run balances the packet-loss
// conservation law audited at finalize.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "elan/elan_fabric.hpp"
#include "fault/fault.hpp"
#include "gm/gm_fabric.hpp"
#include "ib/ib_fabric.hpp"
#include "mpi/comm.hpp"
#include "sweep/sweep_runner.hpp"
#include "util/flags.hpp"

using namespace mns;

namespace {

constexpr std::size_t kNodes = 4;
constexpr std::uint64_t kEagerBytes = 256;
constexpr std::uint64_t kRdvBytes = 32 << 10;

// Vary the fault mix by seed so the sweep covers drops, corruption,
// flaps, NIC stalls and registration failures in many combinations.
fault::FaultPlan plan_for(std::uint64_t seed) {
  fault::FaultPlan p(seed);
  p.drop(fault::kAnyNode, fault::kAnyNode,
         0.02 + 0.01 * static_cast<double>(seed % 8));
  if (seed % 2 == 0) p.corrupt(0, 1, 0.05);
  if (seed % 3 == 0) p.flap(1, 2, sim::Time::us(20), sim::Time::us(60));
  if (seed % 4 == 0) {
    p.nic_stall(static_cast<int>(seed % kNodes), sim::Time::us(10),
                sim::Time::us(15));
  }
  if (seed % 5 == 0) p.reg_fail(fault::kAnyNode, 0.10);
  return p;
}

// One simulation point reduced to a flat word list: per-rank completion
// statuses in program order, the fabric's fault/recovery counters, the
// final simulated clock, and a trailing violation count (0 = every
// invariant held). Equality of two digests is bit-identity of the run.
struct Digest {
  std::vector<std::uint64_t> words;
  bool operator==(const Digest&) const = default;
};

// Runs a neighbour-exchange job (each rank sends one eager and one
// rendezvous message to its right neighbour and receives both from its
// left) under the seed's fault plan (or none when `faulted` is false).
// Called from SweepRunner worker threads, so it must not touch gtest
// macros — invariant failures are folded into the digest's trailing
// violation count instead.
Digest run_point(cluster::Net net, std::uint64_t seed, bool faulted = true) {
  cluster::ClusterConfig cfg{.nodes = kNodes, .net = net};
  if (faulted) cfg.faults = plan_for(seed);
  cluster::Cluster c(cfg);
  const auto ranks = static_cast<std::size_t>(c.ranks());
  std::vector<std::vector<mpi::Status>> st(ranks);
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const int r = comm.rank();
    const int right = (r + 1) % comm.size();
    const int left = (r + comm.size() - 1) % comm.size();
    auto r1 = co_await comm.irecv(
        mpi::View::synth(0x4000u + static_cast<unsigned>(r), kEagerBytes),
        left, 1);
    auto r2 = co_await comm.irecv(
        mpi::View::synth(0x60000u + static_cast<unsigned>(r), kRdvBytes),
        left, 2);
    auto s1 = co_await comm.isend(
        mpi::View::synth(0x1000u + static_cast<unsigned>(r), kEagerBytes),
        right, 1);
    auto s2 = co_await comm.isend(
        mpi::View::synth(0x20000u + static_cast<unsigned>(r), kRdvBytes),
        right, 2);
    auto& out = st[static_cast<std::size_t>(r)];
    out.push_back(co_await comm.wait(r1));
    out.push_back(co_await comm.wait(r2));
    out.push_back(co_await comm.wait(s1));
    out.push_back(co_await comm.wait(s2));
  });

  model::NetFabric& fab = c.fabric();
  std::uint64_t violations = 0;
  Digest d;
  for (const auto& rank_statuses : st) {
    // Exactly-once-or-error: every request completed exactly once (the
    // run() above could not have returned otherwise) with a status that
    // is either success or the one surfaced fabric error.
    if (rank_statuses.size() != 4) ++violations;
    for (const mpi::Status& s : rank_statuses) {
      if (s.error != mpi::kErrNone && s.error != mpi::kErrFabric) {
        ++violations;
      }
      d.words.push_back(static_cast<std::uint64_t>(s.error));
      d.words.push_back(static_cast<std::uint64_t>(s.source));
      d.words.push_back(static_cast<std::uint64_t>(s.tag));
      d.words.push_back(s.bytes);
    }
  }
  // Conservation: every injected loss is either retransmitted away or
  // surfaced, and every posted message delivered or errored.
  if (fab.packets_dropped() + fab.packets_corrupted() +
          fab.packets_gbn_discarded() !=
      fab.packets_retransmitted() + fab.packets_abandoned()) {
    ++violations;
  }
  if (fab.messages_posted() != fab.messages_delivered() +
                                   fab.messages_errored()) {
    ++violations;
  }
  if (!c.make_audit_report().clean()) ++violations;
  d.words.push_back(fab.messages_posted());
  d.words.push_back(fab.messages_delivered());
  d.words.push_back(fab.messages_errored());
  d.words.push_back(fab.packets_dropped());
  d.words.push_back(fab.packets_corrupted());
  d.words.push_back(fab.packets_gbn_discarded());
  d.words.push_back(fab.packets_retransmitted());
  d.words.push_back(fab.packets_abandoned());
  d.words.push_back(static_cast<std::uint64_t>(c.engine().now().count_ps()));
  d.words.push_back(violations);
  return d;
}

constexpr cluster::Net kAllNets[] = {cluster::Net::kInfiniBand,
                                     cluster::Net::kMyrinet,
                                     cluster::Net::kQuadrics};

std::vector<Digest> run_sweep(int jobs, std::size_t seeds) {
  sweep::SweepRunner runner(jobs);
  return runner.run_indexed(seeds * 3, [&](std::size_t i) {
    return run_point(kAllNets[i % 3], 1 + i / 3);
  });
}

}  // namespace

TEST(FaultPlanParse, ParsesEveryClauseKind) {
  const fault::FaultPlan p = fault::FaultPlan::parse(
      "seed:42;drop:0-1:0.25;corrupt:*:0.125;flap:1-2:100:250;"
      "stall:3:50:20,regfail:*:0.5");
  EXPECT_EQ(p.seed(), 42u);
  ASSERT_EQ(p.links().size(), 2u);
  EXPECT_EQ(p.links()[0].src, 0);
  EXPECT_EQ(p.links()[0].dst, 1);
  EXPECT_DOUBLE_EQ(p.links()[0].drop_prob, 0.25);
  EXPECT_EQ(p.links()[1].src, fault::kAnyNode);
  EXPECT_DOUBLE_EQ(p.links()[1].corrupt_prob, 0.125);
  ASSERT_EQ(p.flaps().size(), 1u);
  EXPECT_EQ(p.flaps()[0].from, sim::Time::us(100));
  EXPECT_EQ(p.flaps()[0].to, sim::Time::us(250));
  ASSERT_EQ(p.stalls().size(), 1u);
  EXPECT_EQ(p.stalls()[0].node, 3);
  ASSERT_EQ(p.reg_fails().size(), 1u);
  EXPECT_EQ(p.reg_fails()[0].node, fault::kAnyNode);
}

TEST(FaultPlanParse, RejectsMalformedClauses) {
  EXPECT_THROW(fault::FaultPlan::parse("bogus:1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop:0-1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop:0-1:nan-ish"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("drop:0-1:1.5"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("seed:-3"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("flap:0-1:250:100"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("stall:0:10"), std::invalid_argument);
}

// A malformed --faults spec at the bench CLI boundary exits with code 2
// and a message naming the bad clause (see util::run_cli in the bench
// mains), instead of an unhandled exception.
TEST(FaultCliDeath, MalformedFaultsSpecExitsWithCodeTwo) {
  auto bad = [] {
    fault::FaultPlan::parse("drop:0-1:2.0");
    return 0;
  };
  EXPECT_EXIT(std::exit(util::run_cli(bad)), ::testing::ExitedWithCode(2),
              "bad clause");
}

// An empty FaultPlan (or one that only sets a seed) must leave the data
// path untouched: same clock, same counters, no injector constructed.
TEST(Chaos, EmptyPlanLeavesArtifactsBitIdentical) {
  auto run_once = [](const fault::FaultPlan& plan) {
    cluster::ClusterConfig cfg{.nodes = kNodes,
                               .net = cluster::Net::kInfiniBand};
    cfg.faults = plan;
    cluster::Cluster c(cfg);
    c.run([](mpi::Comm& comm) -> sim::Task<void> {
      const mpi::View buf = mpi::View::synth(
          0x1000u + static_cast<unsigned>(comm.rank()), kRdvBytes);
      const int right = (comm.rank() + 1) % comm.size();
      const int left = (comm.rank() + comm.size() - 1) % comm.size();
      auto rr = co_await comm.irecv(buf, left, 0);
      co_await comm.send(buf, right, 0);
      co_await comm.wait(rr);
    });
    struct Snap {
      std::int64_t ps;
      std::uint64_t delivered, errored, retrans;
      bool operator==(const Snap&) const = default;
    };
    return Snap{c.engine().now().count_ps(), c.fabric().messages_delivered(),
                c.fabric().messages_errored(),
                c.fabric().packets_retransmitted()};
  };
  const auto baseline = run_once(fault::FaultPlan{});
  const auto seeded_but_empty = run_once(fault::FaultPlan{99});
  EXPECT_EQ(baseline, seeded_but_empty);
  EXPECT_EQ(baseline.errored, 0u);
  EXPECT_EQ(baseline.retrans, 0u);
}

// One point examined in detail on the main thread (readable failures):
// severe loss with the IB RC retry budget forces at least one surfaced
// error, and the conservation law still balances exactly.
TEST(Chaos, HeavyLossSurfacesErrorsWithoutHanging) {
  cluster::ClusterConfig cfg{.nodes = 2, .net = cluster::Net::kInfiniBand};
  cfg.faults = fault::FaultPlan(11).drop(0, 1, 0.55);
  cluster::Cluster c(cfg);
  std::vector<mpi::Status> recvs;
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const mpi::View buf = mpi::View::synth(0x9000, kRdvBytes);
    for (int i = 0; i < 20; ++i) {
      if (comm.rank() == 0) {
        co_await comm.send(buf, 1, i);
      } else {
        recvs.push_back(co_await comm.recv(buf, 0, i));
      }
    }
  });
  model::NetFabric& fab = c.fabric();
  ASSERT_EQ(recvs.size(), 20u);
  std::size_t errors = 0;
  for (const mpi::Status& s : recvs) {
    EXPECT_TRUE(s.error == mpi::kErrNone || s.error == mpi::kErrFabric);
    if (s.error == mpi::kErrFabric) ++errors;
  }
  EXPECT_GT(fab.packets_dropped(), 0u);
  EXPECT_GT(fab.packets_retransmitted(), 0u);
  if (errors > 0) {
    EXPECT_GT(fab.packets_abandoned(), 0u);
  }
  EXPECT_EQ(fab.packets_dropped() + fab.packets_corrupted() +
                fab.packets_gbn_discarded(),
            fab.packets_retransmitted() + fab.packets_abandoned());
  EXPECT_EQ(fab.messages_posted(),
            fab.messages_delivered() + fab.messages_errored());
  EXPECT_TRUE(c.make_audit_report().clean())
      << c.make_audit_report().summary();
}

// A total outage window shorter than the retry budget's reach: every
// message still delivers (Go-Back-N rides out the flap), and each flap
// casualty is accounted as a retransmission.
TEST(Chaos, FlapWindowRecoversOnGm) {
  cluster::ClusterConfig cfg{.nodes = 2, .net = cluster::Net::kMyrinet};
  cfg.faults =
      fault::FaultPlan(5).flap(0, 1, sim::Time::us(0), sim::Time::us(120));
  cluster::Cluster c(cfg);
  std::vector<mpi::Status> recvs;
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const mpi::View buf = mpi::View::synth(0xA000, kRdvBytes);
    if (comm.rank() == 0) {
      co_await comm.send(buf, 1, 0);
    } else {
      recvs.push_back(co_await comm.recv(buf, 0, 0));
    }
  });
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_EQ(recvs[0].error, mpi::kErrNone);
  EXPECT_GT(c.fabric().packets_dropped(), 0u);
  EXPECT_EQ(c.fabric().packets_abandoned(), 0u);
  EXPECT_EQ(c.fabric().packets_dropped() + c.fabric().packets_corrupted() +
                c.fabric().packets_gbn_discarded(),
            c.fabric().packets_retransmitted());
}

// Registration failures never lose messages: rendezvous sends fall back
// to the eager protocol (or retry the pin), so everything delivers
// cleanly while the regcache records the injected failures.
TEST(Chaos, RegistrationFailureFallsBackToEager) {
  cluster::ClusterConfig cfg{.nodes = 2, .net = cluster::Net::kInfiniBand};
  cfg.faults = fault::FaultPlan(3).reg_fail(fault::kAnyNode, 1.0);
  cluster::Cluster c(cfg);
  std::vector<mpi::Status> recvs;
  c.run([&](mpi::Comm& comm) -> sim::Task<void> {
    const mpi::View buf = mpi::View::synth(0xB000, kRdvBytes);
    for (int i = 0; i < 4; ++i) {
      if (comm.rank() == 0) {
        co_await comm.send(buf, 1, i);
      } else {
        recvs.push_back(co_await comm.recv(buf, 0, i));
      }
    }
  });
  ASSERT_EQ(recvs.size(), 4u);
  for (const mpi::Status& s : recvs) EXPECT_EQ(s.error, mpi::kErrNone);
  auto& ib = dynamic_cast<ib::IbFabric&>(c.fabric());
  std::uint64_t failures = 0;
  for (std::size_t n = 0; n < 2; ++n) failures += ib.regcache(static_cast<int>(n)).failures();
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(c.fabric().messages_errored(), 0u);
  EXPECT_TRUE(c.make_audit_report().clean())
      << c.make_audit_report().summary();
}

// --- fail-stop grammar and precedence ---------------------------------------

TEST(FaultPlanParse, ParsesFailStopClauses) {
  const fault::FaultPlan p = fault::FaultPlan::parse(
      "linkdown:2-3:80;nicdown:1:120;linkdown:0-*:40");
  EXPECT_TRUE(p.has_fail_stop());
  ASSERT_EQ(p.link_downs().size(), 2u);
  EXPECT_EQ(p.link_downs()[0].src, 2);
  EXPECT_EQ(p.link_downs()[0].dst, 3);
  EXPECT_EQ(p.link_downs()[0].at, sim::Time::us(80));
  EXPECT_EQ(p.link_downs()[1].src, 0);
  EXPECT_EQ(p.link_downs()[1].dst, fault::kAnyNode);
  ASSERT_EQ(p.nic_downs().size(), 1u);
  EXPECT_EQ(p.nic_downs()[0].node, 1);
  EXPECT_EQ(p.nic_downs()[0].at, sim::Time::us(120));

  EXPECT_THROW(fault::FaultPlan::parse("linkdown:0-1"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("nicdown:*:10"),
               std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("nicdown:2"), std::invalid_argument);
  // A transient-only plan never arms the fail-stop machinery.
  EXPECT_FALSE(fault::FaultPlan::parse("drop:*:0.1").has_fail_stop());
}

TEST(FaultPlanParse, SpecificClauseBeatsWildcardRegardlessOfOrder) {
  // Exact link written FIRST, full wildcard last: the exact clause still
  // owns its link, the wildcard fills in everything else.
  const fault::FaultPlan p = fault::FaultPlan::parse("drop:0-1:0.0;drop:*:0.5");
  fault::Injector inj(p, 4);
  EXPECT_FALSE(inj.link_armed(0, 1));
  EXPECT_TRUE(inj.link_armed(0, 2));
  EXPECT_TRUE(inj.link_armed(1, 0));
  // One-sided wildcards sit between exact and the full wildcard.
  const fault::FaultPlan q = fault::FaultPlan::parse(
      "corrupt:0-*:0.0;corrupt:*:0.5;corrupt:0-3:0.25");
  fault::Injector jnj(q, 4);
  EXPECT_FALSE(jnj.link_armed(0, 1));  // 0-* beats *
  EXPECT_TRUE(jnj.link_armed(0, 3));   // exact beats 0-*
  EXPECT_TRUE(jnj.link_armed(2, 1));   // only * applies
}

TEST(FaultPlanParse, OverlappingDownsTakeTheEarliestInstant) {
  // Fail-stop clauses compose earliest-wins, not specific-beats-wildcard:
  // a link cannot die twice, and the first death is the one that matters.
  const fault::FaultPlan p = fault::FaultPlan::parse(
      "linkdown:0-1:900;linkdown:*:500;nicdown:2:300");
  fault::Injector inj(p, 4);
  EXPECT_EQ(inj.link_down_at(0, 1), sim::Time::us(500));
  EXPECT_EQ(inj.link_down_at(1, 0), sim::Time::us(500));
  EXPECT_EQ(inj.link_down_at(0, 2), sim::Time::us(300));
  EXPECT_EQ(inj.link_down_at(2, 3), sim::Time::us(300));
  EXPECT_FALSE(inj.link_dead(0, 1, sim::Time::us(499)));
  EXPECT_TRUE(inj.link_dead(0, 1, sim::Time::us(500)));
}

// --- fail-stop degradation --------------------------------------------------

// A link that is dead from t=0: the first message runs the fabric's full
// retry protocol and surfaces kErrFabric (that exhaustion is what teaches
// the fabric the link is dead); every later message on the link takes the
// bounded degradation fast path and terminates as `aborted`. Both sides
// observe the error, and the extended conservation law
//   posted == delivered + errored + aborted
// balances on every fabric.
TEST(Chaos, LinkDownDegradesToBoundedFastFailureOnEveryFabric) {
  constexpr int kMsgs = 7;
  for (const cluster::Net net : kAllNets) {
    cluster::ClusterConfig cfg{.nodes = 2, .net = net};
    cfg.faults = fault::FaultPlan(7).link_down(0, 1, sim::Time::zero());
    cluster::Cluster c(cfg);
    std::vector<mpi::Status> sends, recvs;
    c.run([&](mpi::Comm& comm) -> sim::Task<void> {
      // Rendezvous-sized: the sender only observes delivery failure for
      // messages whose completion is remote (eager sends complete at the
      // local NIC by design — their errors surface at the receiver).
      const mpi::View buf = mpi::View::synth(0x20000, kRdvBytes);
      // Lock-step so exactly one message is in flight at a time: message
      // 0 exhausts the retry budget, messages 1..N-1 hit the learned-dead
      // fast path.
      for (int i = 0; i < kMsgs; ++i) {
        if (comm.rank() == 0) {
          sends.push_back(co_await comm.wait(co_await comm.isend(buf, 1, i)));
        } else {
          recvs.push_back(co_await comm.recv(buf, 0, i));
        }
      }
    });
    model::NetFabric& fab = c.fabric();
    ASSERT_EQ(sends.size(), static_cast<std::size_t>(kMsgs));
    ASSERT_EQ(recvs.size(), static_cast<std::size_t>(kMsgs));
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_EQ(sends[static_cast<std::size_t>(i)].error, mpi::kErrFabric)
          << net_name(net) << " send " << i;
      EXPECT_EQ(recvs[static_cast<std::size_t>(i)].error, mpi::kErrFabric)
          << net_name(net) << " recv " << i;
    }
    EXPECT_TRUE(fab.link_known_dead(0, 1)) << net_name(net);
    EXPECT_FALSE(fab.link_known_dead(1, 0)) << net_name(net);
    EXPECT_GE(fab.messages_errored(), 1u) << net_name(net);
    EXPECT_GE(fab.messages_aborted(), 1u) << net_name(net);
    EXPECT_EQ(fab.messages_posted(),
              fab.messages_delivered() + fab.messages_errored() +
                  fab.messages_aborted())
        << net_name(net);
    // Per-fabric degradation vocabulary over the same shard state.
    EXPECT_EQ(fab.links_failed(), 1u) << net_name(net);
    EXPECT_EQ(fab.degrade_rounds(), fab.messages_aborted()) << net_name(net);
    if (net == cluster::Net::kInfiniBand) {
      auto& ib = dynamic_cast<ib::IbFabric&>(fab);
      EXPECT_EQ(ib.qp_teardowns(), 1u);
      EXPECT_GE(ib.reconnect_attempts(), 1u);
    } else if (net == cluster::Net::kMyrinet) {
      EXPECT_EQ(dynamic_cast<gm::GmFabric&>(fab).route_probes(), 1u);
    } else {
      EXPECT_EQ(dynamic_cast<elan::ElanFabric&>(fab).retry_escalations(), 1u);
    }
    EXPECT_TRUE(c.make_audit_report().clean())
        << net_name(net) << ": " << c.make_audit_report().summary();
  }
}

// Arming a fail-stop clause must not perturb any transient RNG stream:
// a run whose linkdown sits beyond the end of the simulation is
// bit-identical to one with no linkdown at all.
TEST(Chaos, UnreachedLinkDownLeavesTransientStreamsBitIdentical) {
  auto digest = [](bool with_down) {
    cluster::ClusterConfig cfg{.nodes = kNodes,
                               .net = cluster::Net::kMyrinet};
    cfg.faults = plan_for(9);
    if (with_down) {
      cfg.faults.link_down(0, 1, sim::Time::us(30'000'000));
    }
    cluster::Cluster c(cfg);
    c.run([&](mpi::Comm& comm) -> sim::Task<void> {
      const int right = (comm.rank() + 1) % comm.size();
      const int left = (comm.rank() + comm.size() - 1) % comm.size();
      auto rr = co_await comm.irecv(mpi::View::synth(0x7000, kRdvBytes),
                                    left, 0);
      co_await comm.send(mpi::View::synth(0x8000, kRdvBytes), right, 0);
      co_await comm.wait(rr);
    });
    return std::pair{c.engine().now().count_ps(),
                     c.fabric().packets_retransmitted()};
  };
  EXPECT_EQ(digest(false), digest(true));
}

// --- progress watchdog ------------------------------------------------------

// An unbounded retry budget against a dead link is a genuine livelock:
// simulated time advances (so the quiescence deadlock check never fires)
// but no flow ever terminates. The per-flow watchdog converts it into
// sim::LivelockError carrying the fabric's progress report.
TEST(Chaos, WatchdogTripsOnUnboundedRetryStorm) {
  cluster::ClusterConfig cfg{.nodes = 2, .net = cluster::Net::kInfiniBand};
  cfg.faults = fault::FaultPlan(1).link_down(0, 1, sim::Time::zero());
  cfg.tweak_ib = [](ib::IbConfig& c) { c.recovery.retry_budget = 1 << 20; };
  cluster::Cluster c(cfg);
  c.fabric().set_watchdog_rounds(64);
  try {
    c.run([](mpi::Comm& comm) -> sim::Task<void> {
      if (comm.rank() == 0) {
        co_await comm.send(mpi::View::synth(0xD000, kEagerBytes), 1, 0);
      }
      co_return;
    });
    FAIL() << "expected sim::LivelockError";
  } catch (const sim::LivelockError& e) {
    const std::string r = e.report();
    EXPECT_NE(r.find("netfabric progress report"), std::string::npos) << r;
    EXPECT_NE(r.find("attempts"), std::string::npos) << r;
    EXPECT_NE(r.find("0->1"), std::string::npos) << r;
  }
}

// The --max-sim-time horizon (ClusterConfig::max_sim_time) converts a
// run that overruns its expected simulated duration into the same
// LivelockError, with the engine's own clock diagnostic.
TEST(Chaos, MaxSimTimeGuardAbortsARunThatOverruns) {
  cluster::ClusterConfig cfg{.nodes = 2, .net = cluster::Net::kMyrinet};
  cfg.max_sim_time = sim::Time::us(50);
  cluster::Cluster c(cfg);
  try {
    c.run([](mpi::Comm& comm) -> sim::Task<void> {
      const mpi::View buf = mpi::View::synth(0xE000, kRdvBytes);
      for (int i = 0; i < 64; ++i) {
        if (comm.rank() == 0) {
          co_await comm.send(buf, 1, i);
          co_await comm.recv(buf, 1, 1000 + i);
        } else {
          co_await comm.recv(buf, 0, i);
          co_await comm.send(buf, 0, 1000 + i);
        }
      }
    });
    FAIL() << "expected sim::LivelockError";
  } catch (const sim::LivelockError& e) {
    EXPECT_NE(e.report().find("time limit"), std::string::npos) << e.report();
  }
}

// The tentpole property: 64 seeds x 3 fabrics, every point holds the
// exactly-once-or-error and conservation invariants, a rerun of the
// whole sweep is bit-identical, and --jobs=4 equals --jobs=1.
TEST(Chaos, SweepOf64SeedsIsDeterministicAcrossRerunsAndJobs) {
  constexpr std::size_t kSeeds = 64;
  const std::vector<Digest> serial = run_sweep(1, kSeeds);
  ASSERT_EQ(serial.size(), kSeeds * 3);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].words.empty());
    EXPECT_EQ(serial[i].words.back(), 0u)
        << "invariant violations at point " << i << " (net " << i % 3
        << ", seed " << 1 + i / 3 << ")";
  }
  const std::vector<Digest> rerun = run_sweep(1, kSeeds);
  const std::vector<Digest> threaded = run_sweep(4, kSeeds);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], rerun[i]) << "rerun diverged at point " << i;
    EXPECT_EQ(serial[i], threaded[i]) << "--jobs=4 diverged at point " << i;
  }
}

// Faulted x clean: 64 seeds alternating between the seed's fault plan
// and no plan. Every point holds its invariants, the drop plans really
// drive the recovery machine, and the sweep is bit-identical across
// reruns and --jobs.
TEST(Chaos, FaultedAndCleanSeedsAreDeterministicAcrossRerunsAndJobs) {
  constexpr std::size_t kSeeds = 64;
  auto sweep = [&](int jobs) {
    sweep::SweepRunner runner(jobs);
    return runner.run_indexed(kSeeds, [](std::size_t i) {
      const std::uint64_t seed = 1 + i;
      return run_point(kAllNets[seed % 3], seed, /*faulted=*/seed % 2 == 0);
    });
  };
  const std::vector<Digest> serial = sweep(1);
  std::uint64_t retransmitted = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FALSE(serial[i].words.empty());
    EXPECT_EQ(serial[i].words.back(), 0u) << "violations at seed " << 1 + i;
    // words[-4] is packets_retransmitted (see run_point's layout).
    retransmitted += serial[i].words[serial[i].words.size() - 4];
  }
  EXPECT_GT(retransmitted, 0u) << "no drop plan fired an RTO; vacuous";
  const std::vector<Digest> rerun = sweep(1);
  const std::vector<Digest> threaded = sweep(4);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], rerun[i]) << "rerun diverged at seed " << 1 + i;
    EXPECT_EQ(serial[i], threaded[i]) << "--jobs=4 diverged at seed " << 1 + i;
  }
}
