#include "ib/ib_fabric.hpp"

#include <algorithm>
#include <string>

#include "audit/report.hpp"

namespace mns::ib {

IbConfig default_ib_config(std::size_t nodes) {
  using sim::Time;
  return IbConfig{
      .switch_cfg =
          {
              .ports = nodes,
              .port_bytes_per_second = 1.0e9,  // 8 Gbps data per 4x link
              .forward_latency = Time::ns(200),
          },
      .nic =
          {
              // HCA DMA engines sustain less than the wire: this is the
              // 841 MB/s uni-directional ceiling (Fig. 2).
              .tx_rate = 884e6,
              .rx_rate = 884e6,
              .tx_wire_latency = Time::ns(600),
              .rx_fixed = Time::ns(150),
              // InfiniHost WQE fetch + processing: the dominant share of
              // the 6.8 us small-message latency.
              .per_msg_setup = Time::ns(1900),
              .per_msg_rx_setup = Time::ns(1620),
              .mtu = 2048,
          },
      .regcache =
          {
              // VAPI registration is a kernel call plus per-page pinning.
              .register_base = Time::us(25),
              .register_per_page = Time::usec(1.5),
              .deregister_cost = Time::us(20),
              .page_bytes = 4096,
              .capacity_bytes = 256ULL << 20,
          },
      .base_memory_bytes = 20ULL << 20,
      .per_qp_memory_bytes = 5ULL << 20,
      .recovery =
          {
              // RC QP: transport timeout ~4x the fabric RTT, retry counter
              // 7 (the VAPI maximum) before the QP enters error state.
              .protocol = model::RecoveryConfig::Protocol::kIbRc,
              .rto = Time::us(40),
              .backoff_cap = Time::zero(),
              .retry_budget = 7,
          },
  };
}

IbFabric::IbFabric(sim::Engine& eng, std::vector<model::NodeHw*> nodes,
                   const IbConfig& cfg)
    : NetFabric(eng, std::move(nodes), cfg.switch_cfg, cfg.nic),
      cfg_(cfg) {
  set_recovery(cfg_.recovery);
  regcache_.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    regcache_.emplace_back(cfg_.regcache);
  }
  connected_.resize(node_count());
}

void IbFabric::set_fault_plan(const fault::FaultPlan& plan) {
  NetFabric::set_fault_plan(plan);
  fault::Injector* inj = injector();
  if (inj == nullptr) return;
  regfail_ctx_.reserve(node_count());  // pointer stability for the hooks
  for (std::size_t n = 0; n < node_count(); ++n) {
    if (!inj->reg_armed(static_cast<int>(n))) continue;
    regfail_ctx_.push_back({inj, static_cast<int>(n)});
    regcache_[n].set_fail_hook(&model::RegFailCtx::hook,
                               &regfail_ctx_.back());
  }
}

std::uint64_t IbFabric::memory_bytes(int node) const {
  const std::uint64_t peers =
      cfg_.on_demand_connections
          ? connected_[static_cast<std::size_t>(node)].size()
          : (node_count() > 0 ? node_count() - 1 : 0);
  return cfg_.base_memory_bytes + peers * cfg_.per_qp_memory_bytes;
}

void IbFabric::register_audits(audit::AuditReport& report) {
  NetFabric::register_audits(report);
  report.add_check("ib::IbFabric", [this](audit::AuditReport::Scope& s) {
    s.require(qp_teardowns() > 0 || reconnect_attempts() == 0,
              "RC reconnect attempts priced with no QP ever torn down");
    for (std::size_t n = 0; n < node_count(); ++n) {
      const std::string node = "node " + std::to_string(n);
      s.require(connected_[n].size() <= node_count() - 1,
                node + ": more RC connections than peers");
      for (const int peer : connected_[n]) {
        s.require(peer != static_cast<int>(n),
                  node + ": RC connection to itself");
        const bool symmetric =
            connected_[static_cast<std::size_t>(peer)].count(
                static_cast<int>(n)) > 0;
        s.require(symmetric, node + ": RC connection to node " +
                                 std::to_string(peer) +
                                 " is not symmetric");
      }
      // Fig. 13: memory = base + per-QP * connections (all-to-all when
      // connections are eager, contacted peers when on-demand).
      const std::uint64_t peers =
          cfg_.on_demand_connections ? connected_[n].size()
                                     : node_count() - 1;
      s.require_eq(memory_bytes(static_cast<int>(n)),
                   cfg_.base_memory_bytes +
                       peers * cfg_.per_qp_memory_bytes,
                   node + ": memory footprint off the Fig. 13 formula");
    }
  });
  for (std::size_t n = 0; n < node_count(); ++n) {
    regcache_[n].register_audits(
        report, "ib::regcache[node " + std::to_string(n) + "]");
  }
}

sim::Time IbFabric::degrade_delay(const model::NetMsg&, int round) const {
  // Re-establishment attempt against the dead peer: QP transition +
  // address exchange, which times out. Backoff doubles per attempt and
  // caps at 8x the base setup cost so a long stream of sends to a dead
  // peer drains in bounded time instead of retrying seven RTOs each.
  const int shift = std::min(round - 1, 3);
  return cfg_.connection_setup * (std::int64_t{1} << shift);
}

sim::Time IbFabric::tx_setup(const model::NetMsg& msg) {
  sim::Time t = nic_config().per_msg_setup;
  if (cfg_.on_demand_connections && msg.src != msg.dst) {
    auto& peers = connected_[static_cast<std::size_t>(msg.src)];
    if (peers.insert(msg.dst).second) {
      // First contact: RC connection establishment (QP transition +
      // address exchange) stalls this message.
      connected_[static_cast<std::size_t>(msg.dst)].insert(msg.src);
      t += cfg_.connection_setup;
    }
  }
  return t;
}

}  // namespace mns::ib
