// Myrinet fabric model (M3F-PCIXD-2 NICs + Myrinet-2000 switch, GM 2.x).
//
// GM semantics as used by MPICH-GM's channel device:
//   - Connectionless ports: no per-peer state, flat memory footprint.
//   - send/receive for small messages (staged through pre-registered GM
//     buffers) and *directed send* (remote put) for large zero-copy
//     transfers, which requires registered user buffers -> pin-down cache.
//   - The LANai-XP is a 225 MHz programmable processor: per-message
//     processing is cheap to overlap but slow in absolute terms, and every
//     byte is staged through the 2 MB on-board SRAM. Under simultaneous
//     large send+receive traffic the staging memory becomes the shared
//     bottleneck — the paper's Fig. 5 bi-directional droop past 256 KB.
//
// Links run 2 Gbps = 250 MB/s per direction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "model/netfabric.hpp"
#include "model/regcache.hpp"

namespace mns::gm {

struct GmConfig {
  model::SwitchConfig switch_cfg;
  model::NicConfig nic;
  model::RegCacheConfig regcache;
  double sram_rate;                  // staging throughput when it binds
  std::uint64_t sram_free_bytes;     // per-message size above which staging
                                     // contends (buffers no longer fit)
  std::uint64_t memory_bytes;        // flat MPI footprint (Fig. 13)

  /// LANai firmware reliability: Go-Back-N with cumulative acks — the
  /// receiver discards everything after a sequence gap, the sender
  /// resends the window (set in default_gm_config).
  model::RecoveryConfig recovery;
};

/// Calibrated LANai-XP / Myrinet-2000 parameters.
GmConfig default_gm_config(std::size_t nodes);

class GmFabric final : public model::NetFabric {
 public:
  GmFabric(sim::Engine& eng, std::vector<model::NodeHw*> nodes,
           const GmConfig& cfg);

  std::uint64_t memory_bytes(int node) const;

  model::RegistrationCache& regcache(int node) {
    return regcache_[static_cast<std::size_t>(node)];
  }

  const GmConfig& config() const { return cfg_; }

  /// Fail-stop degradation counter: alternate-route probes run after a
  /// Go-Back-N give-up was attributed to a dead link/NIC. GM is
  /// source-routed, so the firmware can fail over when the topology
  /// offers another path; the modeled cluster hangs every node off one
  /// Myrinet-2000 crossbar, so each probe enumerates the single route,
  /// finds it dead, and the error surfaces instead.
  std::uint64_t route_probes() const { return links_failed(); }

  /// Adds GM-specific invariants: flat per-node memory (connectionless
  /// ports), idle SRAM staging, and pin-down cache conservation laws.
  void register_audits(audit::AuditReport& report) override;

  /// Base pipes plus the SRAM staging stages.
  void collect_pipes(std::vector<model::Pipe*>& out) override;

  /// Installs the chaos plan, then wires registration-failure injection
  /// into every armed node's pin-down cache.
  void set_fault_plan(const fault::FaultPlan& plan) override;

 protected:
  model::Pipe* staging_pipe(int node_id, const model::NetMsg& msg) override;
  /// First degraded send pays the firmware route-table walk; later sends
  /// fail fast at the send-queue head.
  sim::Time degrade_delay(const model::NetMsg& msg, int round) const override;

 private:
  GmConfig cfg_;
  std::vector<model::RegistrationCache> regcache_;
  std::vector<std::unique_ptr<model::Pipe>> sram_;
  std::vector<model::RegFailCtx> regfail_ctx_;  // stable hook contexts
};

}  // namespace mns::gm
