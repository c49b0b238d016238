// Cluster: the top-level harness assembling the paper's testbed.
//
// One Cluster = the 8-node dual-Xeon OSU cluster (or the 16-node Topspin
// system) cabled with one of the three interconnects. It owns the engine,
// the per-node hardware, the chosen fabric, and the MPI job, and runs a
// rank program to completion in simulated time.
//
//   cluster::ClusterConfig cfg{.nodes = 8, .net = cluster::Net::kInfiniBand};
//   cluster::Cluster c(cfg);
//   sim::Time t = c.run([](mpi::Comm& comm) -> sim::Task<void> {
//     co_await comm.barrier();
//   });
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/report.hpp"
#include "elan/elan_fabric.hpp"
#include "fault/fault.hpp"
#include "gm/gm_fabric.hpp"
#include "ib/ib_fabric.hpp"
#include "model/node_hw.hpp"
#include "mpi/ch_factories.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"

namespace mns::cluster {

enum class Net { kInfiniBand, kMyrinet, kQuadrics };

const char* net_name(Net n);
/// Parse "ib" / "myri" / "qsn" (the paper's series labels).
Net parse_net(const std::string& s);

enum class Bus {
  kDefault,  // historical: IB + Myrinet on PCI-X, Quadrics on PCI
  kPci66,    // force PCI 66 (the paper's Figs. 26-28 experiment)
  kPcix133,
};

struct ClusterConfig {
  std::size_t nodes = 8;
  int ppn = 1;  // processes per node (paper: 1, or 2 for SMP mode)
  Net net = Net::kInfiniBand;
  Bus bus = Bus::kDefault;
  /// Requested partition count: an accepted, always-sequential request.
  /// Every cluster runs on one engine; a value in [1, nodes] is accepted
  /// and runs exactly like 1 (effective_partitions() reports 1), any
  /// other value throws std::invalid_argument at construction. Kept so
  /// existing configurations that set it keep working.
  int partitions = 1;

  /// Chaos harness (src/fault): deterministic packet drops / corruption,
  /// link flaps, NIC stalls, registration failures, and fail-stop
  /// linkdown/nicdown clauses. Empty (the default) leaves the data path
  /// bit-identical to a build without the fault layer. Parse from a CLI
  /// spec with fault::FaultPlan::parse.
  fault::FaultPlan faults{};

  /// Progress guard: when nonzero, the engine refuses to advance its
  /// clock past this horizon and throws sim::LivelockError carrying a
  /// progress diagnostic (per-flow stage, pending counters, the engine's
  /// horizon) instead of running a hung or livelocked simulation
  /// forever. Zero (the default) means unlimited.
  sim::Time max_sim_time = sim::Time::zero();

  // Ablation/calibration hooks: mutate the default hardware or channel
  // parameters before construction.
  std::function<void(ib::IbConfig&)> tweak_ib{};
  std::function<void(gm::GmConfig&)> tweak_gm{};
  std::function<void(elan::ElanConfig&)> tweak_elan{};
  std::function<void(mpi::RdvChannelConfig&)> tweak_channel{};
  std::function<void(mpi::ElanChannelConfig&)> tweak_elan_channel{};
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  using RankMain = std::function<sim::Task<void>(mpi::Comm&)>;

  /// Run `rank_main` on every rank to completion; returns elapsed
  /// simulated time for this run. May be called repeatedly (time
  /// accumulates; caches stay warm — like consecutive trials in one job).
  /// In audit builds (MNS_AUDIT=ON) every run finishes with a finalize
  /// audit: any broken conservation law throws audit::AuditError.
  sim::Time run(RankMain rank_main);

  /// Finalize-time invariant report over every layer (engine, fabric,
  /// pin-down caches, MPI). Call after run(); see audit/report.hpp.
  audit::AuditReport make_audit_report();

  sim::Engine& engine() { return engine_; }
  /// The engine, for callers written against partition indices: p must
  /// be 0 (see ClusterConfig::partitions).
  sim::Engine& partition_engine(int p) {
    if (p != 0) throw std::out_of_range("Cluster: one engine, index 0");
    return engine_;
  }
  /// Simulated time.
  sim::Time now() const { return engine_.now(); }
  mpi::Mpi& mpi() { return *mpi_; }
  mpi::Comm& comm(int rank) { return *comms_.at(static_cast<std::size_t>(rank)); }
  int ranks() const { return static_cast<int>(comms_.size()); }
  const ClusterConfig& config() const { return cfg_; }

  prof::Recorder& recorder() { return mpi_->recorder(); }
  sim::Cpu& cpu(int rank) { return mpi_->proc(rank).cpu(); }

  /// MPI library memory footprint on a node (paper Fig. 13).
  std::uint64_t device_memory_bytes(int node) const {
    return mpi_->device().memory_bytes(node);
  }

  /// The constructed fabric (whichever of the three cfg.net selected);
  /// used by the chaos tests to read fault/recovery counters.
  model::NetFabric& fabric();

  /// Engines executing the run: always 1 (see ClusterConfig::partitions).
  int effective_partitions() const { return 1; }

 private:
  ClusterConfig cfg_;
  sim::Engine engine_;
  // Coroutine frames outstanding in the thread's frame pool right after
  // construction (the persistent daemon loops). The finalize audit checks
  // the pool returns to exactly this level — any excess is a leaked frame.
  std::uint64_t frame_pool_baseline_ = 0;
  std::vector<std::unique_ptr<model::NodeHw>> nodes_;
  // Exactly one of these is built, per cfg_.net.
  std::unique_ptr<ib::IbFabric> ib_;
  std::unique_ptr<gm::GmFabric> gm_;
  std::unique_ptr<elan::ElanFabric> elan_;
  std::unique_ptr<mpi::Mpi> mpi_;
  std::vector<std::unique_ptr<mpi::Comm>> comms_;
};

}  // namespace mns::cluster
