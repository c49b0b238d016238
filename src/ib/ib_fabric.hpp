// InfiniBand fabric model (Mellanox InfiniHost HCAs + InfiniScale switch).
//
// VAPI semantics as used by MVAPICH's ch_ib device:
//   - Reliable Connection (RC) service: a queue pair per node pair, set up
//     at init time. Each QP reserves WQE rings and eager RDMA buffers at
//     BOTH ends — this is what makes MPI-over-IB memory consumption grow
//     linearly with the node count (paper Fig. 13).
//   - Communication buffers must be registered; a pin-down cache makes the
//     cost depend on application buffer reuse (Figs. 7/8).
//   - RDMA write is used for everything: small/control messages go into a
//     remote ring buffer, large messages zero-copy to the receiver's
//     registered buffer.
//
// 4x links carry 10 Gbps signalling = 1 GB/s of data after 8b/10b coding;
// the HCA's DMA engines sustain ~880 MB/s per direction, and the PCI-X
// host bus (shared half-duplex) is the bi-directional bottleneck.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "model/netfabric.hpp"
#include "model/regcache.hpp"

namespace mns::ib {

struct IbConfig {
  model::SwitchConfig switch_cfg;
  model::NicConfig nic;
  model::RegCacheConfig regcache;
  std::uint64_t base_memory_bytes;    // HCA driver + library footprint
  std::uint64_t per_qp_memory_bytes;  // WQEs + eager ring per RC connection

  /// Extension (the paper's Section 3.8 remedy, after Wu et al.): create
  /// RC connections lazily on first use instead of all-to-all at init.
  /// Memory then grows with the peers a node actually talks to, at the
  /// price of a connection-setup stall on the first message.
  bool on_demand_connections = false;
  sim::Time connection_setup = sim::Time::us(130);

  /// RC transport reliability: per-QP ack/timeout with a fixed RTO and a
  /// bounded retry count; exhausting it puts the QP in error state and the
  /// completion surfaces to the MPI layer (set in default_ib_config).
  model::RecoveryConfig recovery;
};

/// Calibrated Mellanox InfiniHost MT23108 + InfiniScale parameters.
IbConfig default_ib_config(std::size_t nodes);

class IbFabric final : public model::NetFabric {
 public:
  IbFabric(sim::Engine& eng, std::vector<model::NodeHw*> nodes,
           const IbConfig& cfg);

  /// MPI-visible memory footprint on `node` (paper Fig. 13): eager
  /// all-to-all RC connections by default; with on-demand connections
  /// only the peers actually contacted count.
  std::uint64_t memory_bytes(int node) const;

  model::RegistrationCache& regcache(int node) {
    return regcache_[static_cast<std::size_t>(node)];
  }

  std::size_t connections(int node) const {
    return connected_[static_cast<std::size_t>(node)].size();
  }

  const IbConfig& config() const { return cfg_; }

  /// Fail-stop degradation counters: RC QPs moved to the error state and
  /// torn down after retry exhaustion on a dead link/NIC, and the
  /// re-establishment attempts priced (and failed) against the dead peer.
  /// Both are views over the base fabric's dead-link registry.
  std::uint64_t qp_teardowns() const { return links_failed(); }
  std::uint64_t reconnect_attempts() const { return degrade_rounds(); }

  /// Adds IB-specific invariants to the fabric checks: RC connection
  /// symmetry, per-QP memory matching the Fig. 13 formula, and the
  /// per-node pin-down cache conservation laws.
  void register_audits(audit::AuditReport& report) override;

  /// Installs the chaos plan, then wires registration-failure injection
  /// into every armed node's pin-down cache.
  void set_fault_plan(const fault::FaultPlan& plan) override;

 protected:
  sim::Time tx_setup(const model::NetMsg& msg) override;
  /// RC degradation: retry exhaustion puts the QP in the error state. The
  /// teardown is modeled in counters + time only — `connected_` is left
  /// alone because it records which QPs were ever established (the
  /// Fig. 13 footprint survives a dead peer).
  /// On-demand re-establishment against the dead peer: each degraded
  /// message pays a connection-setup attempt with capped doubling backoff
  /// before the failure surfaces.
  sim::Time degrade_delay(const model::NetMsg& msg, int round) const override;

 private:
  IbConfig cfg_;
  std::vector<model::RegistrationCache> regcache_;
  // Per node: the set of peers an RC connection exists to (on-demand).
  std::vector<std::set<int>> connected_;
  // Stable contexts for the C-style regcache fail hooks (one per node,
  // fully reserved before any pointer is handed out).
  std::vector<model::RegFailCtx> regfail_ctx_;
};

}  // namespace mns::ib
