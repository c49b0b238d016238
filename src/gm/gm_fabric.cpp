#include "gm/gm_fabric.hpp"

#include <string>

#include "audit/report.hpp"

namespace mns::gm {

GmConfig default_gm_config(std::size_t nodes) {
  using sim::Time;
  return GmConfig{
      .switch_cfg =
          {
              .ports = nodes,
              .port_bytes_per_second = 250e6,  // 2 Gbps links
              .forward_latency = Time::ns(300),
          },
      .nic =
          {
              .tx_rate = 248e6,
              .rx_rate = 248e6,
              .tx_wire_latency = Time::ns(400),
              .rx_fixed = Time::ns(150),
              // LANai firmware runs the protocol: per-message work is the
              // bulk of the 6.7 us latency, with tiny host overhead.
              .per_msg_setup = Time::usec(2.0),
              .per_msg_rx_setup = Time::usec(1.8),
              // Pipelining granularity: the LANai streams packets through
              // SRAM in ~1 KB chunks (cut-through behaviour).
              .mtu = 1024,
              .shared_processor = true,
              // GM is reliable: the LANai retires each send token on ack.
              .ack_processing = Time::usec(2.0),
              .ack_delay = Time::ns(200),
          },
      .regcache =
          {
              .register_base = Time::us(20),
              .register_per_page = Time::usec(1.2),
              .deregister_cost = Time::us(15),
              .page_bytes = 4096,
              .capacity_bytes = 256ULL << 20,
          },
      .sram_rate = 356e6,            // ~340 MB (2^20) /s aggregate staging
      .sram_free_bytes = 256 << 10,  // beyond this, staging contends
      .memory_bytes = 11ULL << 20,
      .recovery =
          {
              // LANai firmware Go-Back-N: a generous resend budget (the
              // firmware keeps trying far longer than an RC QP), fixed
              // timeout tuned to the 2 Gbps wire.
              .protocol = model::RecoveryConfig::Protocol::kGoBackN,
              .rto = Time::us(50),
              .backoff_cap = Time::zero(),
              .retry_budget = 15,
          },
  };
}

GmFabric::GmFabric(sim::Engine& eng, std::vector<model::NodeHw*> nodes,
                   const GmConfig& cfg)
    : NetFabric(eng, std::move(nodes), cfg.switch_cfg, cfg.nic),
      cfg_(cfg) {
  set_recovery(cfg_.recovery);
  regcache_.reserve(node_count());
  sram_.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    regcache_.emplace_back(cfg_.regcache);
    sram_.push_back(std::make_unique<model::Pipe>(eng, cfg_.sram_rate));
  }
}

void GmFabric::set_fault_plan(const fault::FaultPlan& plan) {
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

std::uint64_t GmFabric::memory_bytes(int) const { return cfg_.memory_bytes; }

void GmFabric::register_audits(audit::AuditReport& report) {
  NetFabric::register_audits(report);
  report.add_check("gm::GmFabric", [this](audit::AuditReport::Scope& s) {
    for (std::size_t n = 0; n < node_count(); ++n) {
      // GM ports are connectionless: the footprint never grows (Fig. 13).
      s.require_eq(memory_bytes(static_cast<int>(n)), cfg_.memory_bytes,
                   "node " + std::to_string(n) +
                       ": GM memory footprint is not flat");
      s.require(sram_[n]->idle(), "node " + std::to_string(n) +
                                      ": SRAM staging busy at finalize");
    }
  });
  for (std::size_t n = 0; n < node_count(); ++n) {
    regcache_[n].register_audits(
        report, "gm::regcache[node " + std::to_string(n) + "]");
  }
}

void GmFabric::collect_pipes(std::vector<model::Pipe*>& out) {
  NetFabric::collect_pipes(out);
  for (auto& p : sram_) out.push_back(p.get());
}

sim::Time GmFabric::degrade_delay(const model::NetMsg&, int round) const {
  // Round 1: the LANai firmware re-walks its route table looking for an
  // alternate path (one Go-Back-N timeout's worth of probing). The
  // single-crossbar topology offers none, so every later send on the
  // dead route fails fast after a fraction of the timeout.
  return round == 1 ? cfg_.recovery.rto : cfg_.recovery.rto / 8;
}

model::Pipe* GmFabric::staging_pipe(int node_id, const model::NetMsg& msg) {
  // Small messages fit comfortably in SRAM buffers; only bulk transfers
  // contend for staging bandwidth.
  if (msg.bytes <= cfg_.sram_free_bytes) return nullptr;
  return sram_[static_cast<std::size_t>(node_id)].get();
}

}  // namespace mns::gm
