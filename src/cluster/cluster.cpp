#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/frame_pool.hpp"

namespace mns::cluster {

const char* net_name(Net n) {
  switch (n) {
    case Net::kInfiniBand: return "IBA";
    case Net::kMyrinet: return "Myri";
    case Net::kQuadrics: return "QSN";
  }
  return "?";
}

Net parse_net(const std::string& s) {
  if (s == "ib" || s == "iba" || s == "infiniband") return Net::kInfiniBand;
  if (s == "myri" || s == "gm" || s == "myrinet") return Net::kMyrinet;
  if (s == "qsn" || s == "elan" || s == "quadrics") return Net::kQuadrics;
  throw std::invalid_argument("unknown network '" + s +
                              "' (want ib|myri|qsn)");
}

namespace {
model::BusConfig bus_for(Net net, Bus bus) {
  switch (bus) {
    case Bus::kPci66: return model::pci_66();
    case Bus::kPcix133: return model::pcix_133();
    case Bus::kDefault:
      // The testbed: InfiniHost + Myrinet cards in PCI-X slots, the Elan3
      // QM-400 in a 64-bit/66 MHz PCI slot.
      return net == Net::kQuadrics ? model::pci_66() : model::pcix_133();
  }
  return model::pcix_133();
}
}  // namespace

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  if (cfg_.nodes == 0) throw std::invalid_argument("cluster needs nodes");
  if (cfg_.ppn < 1 || cfg_.ppn > 2) {
    throw std::invalid_argument("ppn must be 1 or 2 (dual-CPU nodes)");
  }
  if (cfg_.partitions < 1 ||
      static_cast<std::size_t>(cfg_.partitions) > cfg_.nodes) {
    throw std::invalid_argument(
        "partitions must be in [1, nodes]; got " +
        std::to_string(cfg_.partitions) + " for " +
        std::to_string(cfg_.nodes) + " nodes");
  }

  const model::BusConfig bus = bus_for(cfg_.net, cfg_.bus);

  // Pre-size the event heap from the topology: per-rank process starts,
  // in-flight window messages, NIC pipeline stages. Over-reserving a
  // little is free; re-growing mid-run costs a full heap copy.
  const std::size_t ranks = cfg_.nodes * static_cast<std::size_t>(cfg_.ppn);
  engine_.reserve_events(64 + 48 * ranks);

  std::vector<model::NodeHw*> node_ptrs;
  nodes_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    nodes_.push_back(std::make_unique<model::NodeHw>(
        engine_, bus, model::xeon_2003_memcpy()));
    node_ptrs.push_back(nodes_.back().get());
  }

  mpi_ = std::make_unique<mpi::Mpi>(
      engine_, mpi::Topology::block(cfg_.nodes, cfg_.ppn));

  switch (cfg_.net) {
    case Net::kInfiniBand: {
      ib::IbConfig ib_cfg = ib::default_ib_config(cfg_.nodes);
      if (cfg_.tweak_ib) cfg_.tweak_ib(ib_cfg);
      mpi::RdvChannelConfig cc = mpi::default_ch_ib_config();
      if (cfg_.tweak_channel) cfg_.tweak_channel(cc);
      ib_ = std::make_unique<ib::IbFabric>(engine_, node_ptrs, ib_cfg);
      mpi_->set_device(mpi::make_ch_rdv(*mpi_, *ib_, cc));
      break;
    }
    case Net::kMyrinet: {
      gm::GmConfig gm_cfg = gm::default_gm_config(cfg_.nodes);
      if (cfg_.tweak_gm) cfg_.tweak_gm(gm_cfg);
      mpi::RdvChannelConfig cc = mpi::default_ch_gm_config();
      if (cfg_.tweak_channel) cfg_.tweak_channel(cc);
      gm_ = std::make_unique<gm::GmFabric>(engine_, node_ptrs, gm_cfg);
      mpi_->set_device(mpi::make_ch_rdv(*mpi_, *gm_, cc));
      break;
    }
    case Net::kQuadrics: {
      elan::ElanConfig elan_cfg = elan::default_elan_config(cfg_.nodes);
      if (cfg_.tweak_elan) cfg_.tweak_elan(elan_cfg);
      mpi::ElanChannelConfig cc = mpi::default_elan_channel_config();
      if (cfg_.tweak_elan_channel) cfg_.tweak_elan_channel(cc);
      elan_ = std::make_unique<elan::ElanFabric>(engine_, node_ptrs,
                                                 elan_cfg);
      mpi_->set_device(mpi::make_ch_elan(*mpi_, *elan_, cc));
      break;
    }
  }

  if (!cfg_.faults.empty()) fabric().set_fault_plan(cfg_.faults);
  // Cross-node error notifications under a fail-stop plan (see
  // NetFabric::run_on_node) pay the fabric's tightest per-stage floor:
  // the tx wire latency, the rx fixed cost, the bus DMA setup and, on
  // Myrinet, one byte of SRAM staging serialization. A no-op without a
  // fail-stop clause.
  const model::NicConfig& nic = fabric().nic_config();
  sim::Time notify =
      std::min({nic.tx_wire_latency, nic.rx_fixed, bus.per_dma_setup});
  if (gm_) {
    notify = std::min(notify, sim::transfer_time(1, gm_->config().sram_rate));
  }
  fabric().set_error_notify_delay(notify);
  // Fail-stop clauses switch the MPI collectives to their deterministic
  // error-agreement epilogue (see Comm::finish_collective); transient-only
  // plans leave the collectives byte-for-byte unchanged.
  mpi_->set_fail_stop_armed(cfg_.faults.has_fail_stop());

  if (cfg_.max_sim_time > sim::Time::zero()) {
    engine_.set_time_limit(cfg_.max_sim_time);
  }

  comms_.reserve(mpi_->size());
  for (std::size_t r = 0; r < mpi_->size(); ++r) {
    comms_.push_back(
        std::make_unique<mpi::Comm>(*mpi_, static_cast<mpi::Rank>(r)));
  }

  // Construction spawned the persistent daemon loops (NIC senders,
  // progress engines); everything above this level must drain by the end
  // of a run. Re-snapshotted at each run() so the audit stays exact even
  // when several clusters are alive on this thread (the pool is
  // thread-local and run() is synchronous, so nothing else can allocate
  // between the snapshot and the check).
  frame_pool_baseline_ = sim::frame_pool::stats().outstanding();
}

model::NetFabric& Cluster::fabric() {
  if (ib_) return *ib_;
  if (gm_) return *gm_;
  return *elan_;
}

Cluster::~Cluster() {
  // Suspended rank coroutines (e.g. after a DeadlockError run) hold
  // MpiScope/Request locals referencing mpi_ and the fabrics. Destroy
  // their frames while those members are still alive; member destruction
  // order alone would tear down mpi_ first.
  engine_.drop_processes();
}

sim::Time Cluster::run(RankMain rank_main) {
  const sim::Time start = now();
  frame_pool_baseline_ = sim::frame_pool::stats().outstanding();
  try {
    for (auto& comm : comms_) {
      // Wrap so each rank's coroutine sees its own Comm.
      engine_.spawn([](RankMain fn, mpi::Comm& c) -> sim::Task<void> {
        co_await fn(c);
      }(rank_main, *comm));
    }
    engine_.run();
  } catch (const sim::LivelockError& e) {
    // Augment the engine's report with the layer only the cluster can
    // see: the fabric's per-flow stages.
    std::string report = e.report();
    report += "\n" + fabric().progress_report();
    report += "engine: now=" + engine_.now().str() + " pending=" +
              std::to_string(engine_.pending_events()) + "\n";
    throw sim::LivelockError(std::move(report));
  }
  if constexpr (audit::kEnabled) {
    make_audit_report().require_clean();
  }
  return now() - start;
}

audit::AuditReport Cluster::make_audit_report() {
  audit::AuditReport report;
  engine_.register_audits(report);
  report.add_check("sim::frame_pool", [this](audit::AuditReport::Scope& s) {
    // Empty-at-exit modulo the persistent daemons: every transient frame
    // the run spawned (compute/busy tasks, per-message channel tasks)
    // must have been returned to the pool.
    s.require_eq(sim::frame_pool::stats().outstanding(),
                 frame_pool_baseline_,
                 "coroutine frame pool not back to its pre-run level "
                 "(leaked frame)");
  });
  if (ib_) ib_->register_audits(report);
  if (gm_) gm_->register_audits(report);
  if (elan_) elan_->register_audits(report);
  mpi_->register_audits(report);
  return report;
}

}  // namespace mns::cluster
