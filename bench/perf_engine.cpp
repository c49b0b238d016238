// Engine performance micro-benchmarks (google-benchmark): these measure
// the SIMULATOR itself (host performance), not the modelled hardware.
//
// CI runs this binary in Release and uploads the JSON report; by default
// it writes BENCH_engine.json into the working directory (pass your own
// --benchmark_out to override). The copy committed at the repository root
// is a trajectory record from one Release run on a named box (see
// EXPERIMENTS.md), not a gate: CI compares against its previous artifact.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "ib/ib_fabric.hpp"
#include "model/node_hw.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sweep/sweep_runner.hpp"

using namespace mns;

static void BM_EventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      eng.after(sim::Time::ns(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EventThroughput)->Unit(benchmark::kMillisecond);

// Self-rescheduling timers: every handler pushes its own next event, so
// each heap event runs the engine's fused pop/push (the handler's push
// fills the root its event left open). BM_EventThroughput's handlers push
// nothing and never take that path. 64 timers keep about as many events
// pending as a p2p cluster run does; delays are 1-1024 ps from an LCG.
namespace {
struct ChainTimer {
  sim::Engine* eng;
  std::uint64_t lcg;
  int left;
  static void fire(void* self, void*) {
    auto* t = static_cast<ChainTimer*>(self);
    if (--t->left == 0) return;
    t->lcg = t->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto delay = static_cast<std::int64_t>(1 + (t->lcg >> 54));
    t->eng->after(sim::Time::ps(delay), sim::EventFn(&fire, t));
  }
};
}  // namespace

static void BM_EventChain(benchmark::State& state) {
  constexpr int kTimers = 64;
  constexpr int kPerTimer = 2000;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<ChainTimer> timers(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      timers[i] = ChainTimer{&eng, static_cast<std::uint64_t>(i) + 1,
                             kPerTimer};
      eng.after(sim::Time::ps(i + 1), sim::EventFn(&ChainTimer::fire,
                                                   &timers[i]));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * kTimers * kPerTimer);
}
BENCHMARK(BM_EventChain)->Unit(benchmark::kMillisecond);

static void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    sim::Mailbox<int> a(eng), b(eng);
    eng.spawn([](sim::Mailbox<int>& a, sim::Mailbox<int>& b) -> sim::Task<void> {
      for (int i = 0; i < 20000; ++i) {
        a.send(i);
        co_await b.receive();
      }
    }(a, b));
    eng.spawn([](sim::Mailbox<int>& a, sim::Mailbox<int>& b) -> sim::Task<void> {
      for (int i = 0; i < 20000; ++i) {
        co_await a.receive();
        b.send(i);
      }
    }(a, b));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 40000);
}
BENCHMARK(BM_CoroutinePingPong)->Unit(benchmark::kMillisecond);

static void BM_MpiLatencySim(benchmark::State& state) {
  for (auto _ : state) {
    cluster::ClusterConfig cfg{.nodes = 2,
                               .net = cluster::Net::kInfiniBand};
    cluster::Cluster c(cfg);
    c.run([](mpi::Comm& comm) -> sim::Task<void> {
      const mpi::View buf = mpi::View::synth(0x1000 + comm.rank(), 64);
      for (int i = 0; i < 500; ++i) {
        if (comm.rank() == 0) {
          co_await comm.send(buf, 1, 0);
          co_await comm.recv(buf, 1, 0);
        } else {
          co_await comm.recv(buf, 0, 0);
          co_await comm.send(buf, 0, 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MpiLatencySim)->Unit(benchmark::kMillisecond);

// Message data path, fabric level: an uncontended ping-pong stream of
// 64 KB messages over the IB model (32 MTU packets each), every message
// posted as the previous one lands — the pooled packet state machine.
static void BM_MessagePathStream(benchmark::State& state) {
  constexpr int kMsgs = 2000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
    int left = kMsgs;
    std::function<void()> bounce = [&] {
      if (--left == 0) return;
      model::NetMsg m;
      m.src = left % 2;  // alternate direction each bounce
      m.dst = 1 - m.src;
      m.bytes = 64 << 10;
      m.remote_arrival = bounce;
      fab.post(std::move(m));
    };
    model::NetMsg first;
    first.src = 0;
    first.dst = 1;
    first.bytes = 64 << 10;
    first.remote_arrival = bounce;
    fab.post(std::move(first));
    eng.run();
    benchmark::DoNotOptimize(fab.messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_MessagePathStream)->Unit(benchmark::kMillisecond);

// Same data path under fan-in contention: two senders stream into one
// receiver, so their packets interleave on the receiver's pipes.
static void BM_MessagePathContended(benchmark::State& state) {
  constexpr int kPerStream = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw c(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b, &c};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(3));
    int left[2] = {kPerStream, kPerStream};
    std::function<void()> repost[2];
    for (int s = 0; s < 2; ++s) {
      repost[s] = [&, s] {
        if (--left[s] == 0) return;
        model::NetMsg m;
        m.src = s;
        m.dst = 2;
        m.bytes = 16 << 10;
        m.remote_arrival = repost[s];
        fab.post(std::move(m));
      };
      model::NetMsg m;
      m.src = s;
      m.dst = 2;
      m.bytes = 16 << 10;
      m.remote_arrival = repost[s];
      fab.post(std::move(m));
    }
    eng.run();
    benchmark::DoNotOptimize(fab.messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kPerStream);
}
BENCHMARK(BM_MessagePathContended)->Unit(benchmark::kMillisecond);

// Recovery-path hot loop: the same fabric-level bounce stream as
// BM_MessagePathStream, but with a 20% deterministic drop rate on the
// 0->1 link — a retransmit storm. Exercises lose_packet/arm_rto/
// resend_lost, the cancellable-timer slab, and the error surface (the
// bounce continues through on_failed when a message exhausts its
// budget), so the bench_compare regression gate covers the fault
// machinery alongside the happy path.
static void BM_RetransmitStorm(benchmark::State& state) {
  constexpr int kMsgs = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
    fault::FaultPlan plan;
    plan.set_seed(7).drop(0, 1, 0.20).corrupt(1, 0, 0.05);
    fab.set_fault_plan(plan);
    int left = kMsgs;
    std::function<void()> bounce = [&] {
      if (--left == 0) return;
      model::NetMsg m;
      m.src = left % 2;
      m.dst = 1 - m.src;
      m.bytes = 16 << 10;
      m.remote_arrival = bounce;
      m.on_failed = bounce;  // an abandoned message must not stall the run
      fab.post(std::move(m));
    };
    model::NetMsg first;
    first.src = 0;
    first.dst = 1;
    first.bytes = 16 << 10;
    first.remote_arrival = bounce;
    first.on_failed = bounce;
    fab.post(std::move(first));
    eng.run();
    benchmark::DoNotOptimize(fab.packets_retransmitted());
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_RetransmitStorm)->Unit(benchmark::kMillisecond);

// Fail-stop degradation hot loop: the 0->1 link dies permanently before
// the first message, so message #1 runs the full retry cycle, exhausts
// its budget and teaches the shard the link is dead — and every later
// 0->1 message takes the sender_loop degradation fast path (bounded
// backoff + abort_degraded) instead of re-running retransmission.
// Measures the learned-dead fast-fail cost the graceful-degradation
// design note promises stays O(1) per message; the healthy 1->0
// direction runs interleaved as the control.
static void BM_LinkDownRecovery(benchmark::State& state) {
  constexpr int kMsgs = 1000;
  for (auto _ : state) {
    sim::Engine eng;
    model::NodeHw a(eng, model::pcix_133(), model::xeon_2003_memcpy());
    model::NodeHw b(eng, model::pcix_133(), model::xeon_2003_memcpy());
    std::vector<model::NodeHw*> nodes{&a, &b};
    ib::IbFabric fab(eng, nodes, ib::default_ib_config(2));
    fault::FaultPlan plan;
    plan.set_seed(7).link_down(0, 1, sim::Time::zero());
    fab.set_fault_plan(plan);
    int left = kMsgs;
    std::function<void()> bounce = [&] {
      if (--left == 0) return;
      model::NetMsg m;
      m.src = left % 2;
      m.dst = 1 - m.src;
      m.bytes = 16 << 10;
      m.remote_arrival = bounce;
      m.on_failed = bounce;  // degraded-path aborts keep the run moving
      fab.post(std::move(m));
    };
    model::NetMsg first;
    first.src = 0;
    first.dst = 1;
    first.bytes = 16 << 10;
    first.remote_arrival = bounce;
    first.on_failed = bounce;
    fab.post(std::move(first));
    eng.run();
    benchmark::DoNotOptimize(fab.messages_aborted());
  }
  state.SetItemsProcessed(state.iterations() * kMsgs);
}
BENCHMARK(BM_LinkDownRecovery)->Unit(benchmark::kMillisecond);

// Fault-aware collective end-to-end: one NIC on an 8-node InfiniBand
// cluster dies early, and every later allreduce runs the degradation
// fast path plus the deterministic error-agreement epilogue (the binomial
// fan-in/fan-out that gives all live ranks the same verdict). Guards the
// epilogue's overhead and the degraded collective's termination — each
// round still completes delivered-or-errored.
static void BM_DegradedAllreduce(benchmark::State& state) {
  constexpr std::uint64_t kBytes = 4 << 10;
  constexpr int kRounds = 8;
  for (auto _ : state) {
    cluster::ClusterConfig cfg{.nodes = 8,
                               .net = cluster::Net::kInfiniBand};
    cfg.faults = fault::FaultPlan(7).nic_down(5, sim::Time::us(5));
    cluster::Cluster c(cfg);
    int errors = 0;
    c.run([&](mpi::Comm& comm) -> sim::Task<void> {
      const mpi::View buf = mpi::View::synth(
          0x40000u + (static_cast<unsigned>(comm.rank()) << 16), kBytes);
      for (int round = 0; round < kRounds; ++round) {
        co_await comm.allreduce(buf, kBytes / 8, mpi::Dtype::kInt64,
                                mpi::ROp::kSum);
        if (comm.rank() == 0 && comm.last_error() != mpi::kErrNone) {
          ++errors;
        }
      }
    });
    if (errors == 0) state.SkipWithError("dead NIC never surfaced");
    benchmark::DoNotOptimize(c.fabric().messages_aborted());
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_DegradedAllreduce)->Unit(benchmark::kMillisecond);

// Frame-pool churn: every spawn allocates a Root frame plus a Task frame,
// and every completion retires both, so each wave recycles its frames
// through the per-thread pool (40k promise allocations per iteration).
static void BM_FramePoolChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int wave = 0; wave < 100; ++wave) {
      for (int i = 0; i < 200; ++i) {
        eng.spawn([](sim::Engine& e, int d) -> sim::Task<void> {
          co_await e.delay(sim::Time::ns(d));
        }(eng, i));
      }
      eng.run();
    }
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_FramePoolChurn)->Unit(benchmark::kMillisecond);

// Sweep fan-out: twelve independent 2-node ping-pong simulations mapped
// over the runner, as the fig/tab harnesses do. Arg is --jobs; real time
// shows the between-simulation scaling (and jobs=1 the runner's overhead).
static void BM_SweepRunner(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto secs = sweep::SweepRunner(jobs).run_indexed(12, [](std::size_t i) {
      cluster::ClusterConfig cfg{
          .nodes = 2,
          .net = static_cast<cluster::Net>(i % 3)};
      cluster::Cluster c(cfg);
      c.run([](mpi::Comm& comm) -> sim::Task<void> {
        const mpi::View buf = mpi::View::synth(0x1000 + comm.rank(), 64);
        for (int k = 0; k < 200; ++k) {
          if (comm.rank() == 0) {
            co_await comm.send(buf, 1, 0);
            co_await comm.recv(buf, 1, 0);
          } else {
            co_await comm.recv(buf, 0, 0);
            co_await comm.send(buf, 0, 0);
          }
        }
      });
      return c.engine().now().to_seconds();
    });
    benchmark::DoNotOptimize(secs.data());
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // Default the JSON report so CI (and anyone running the binary bare)
  // gets BENCH_engine.json without extra flags.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_engine.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
