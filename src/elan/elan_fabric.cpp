#include "elan/elan_fabric.hpp"

#include <memory>
#include <string>

#include "audit/report.hpp"

namespace mns::elan {

ElanConfig default_elan_config(std::size_t nodes) {
  using sim::Time;
  return ElanConfig{
      .switch_cfg =
          {
              .ports = nodes,
              .port_bytes_per_second = 400e6,  // Elan3 link
              .forward_latency = Time::ns(150),  // Elite is fast
          },
      .nic =
          {
              // Link protocol efficiency caps sustained rate near 308 MB
              // (2^20)/s even though the raw link is 400 MB/s.
              .tx_rate = 324e6,
              .rx_rate = 324e6,
              .tx_wire_latency = Time::ns(250),
              .rx_fixed = Time::ns(100),
              // The Elan NIC processor is quick; most of the 4.6 us
              // latency is host overhead posting Tport descriptors.
              .per_msg_setup = Time::ns(400),
              .per_msg_rx_setup = Time::ns(300),
              // Wormhole routing: fine-grained cut-through.
              .mtu = 512,
              .shared_processor = true,
              .ack_processing = Time::usec(2.0),
              .ack_delay = Time::ns(400),
          },
      .mmu =
          {
              .page_bytes = 8192,
              .entries = 4096,
              .miss_cost = Time::ns(400),
              .miss_cost_base = Time::usec(3.0),
          },
      .dma_queue_depth = 16,
      .queue_overflow_penalty = Time::usec(2.5),
      .loopback_penalty = Time::usec(1.7),
      .memory_bytes = 7ULL << 20,
      .recovery =
          {
              // Hardware retry: tight first timeout (the NIC notices a
              // missing ack fast), backoff doubling to a 160 us ceiling.
              .protocol = model::RecoveryConfig::Protocol::kHwRetry,
              .rto = Time::us(10),
              .backoff_cap = Time::us(160),
              .retry_budget = 10,
          },
  };
}

ElanFabric::ElanFabric(sim::Engine& eng, std::vector<model::NodeHw*> nodes,
                       const ElanConfig& cfg)
    : NetFabric(eng, std::move(nodes), cfg.switch_cfg, cfg.nic),
      cfg_(cfg) {
  set_recovery(cfg_.recovery);
  mmu_.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    mmu_.emplace_back(cfg_.mmu);
  }
  outstanding_.assign(node_count(), 0);
}

std::uint64_t ElanFabric::memory_bytes(int) const { return cfg_.memory_bytes; }

sim::Time ElanFabric::tx_setup(const model::NetMsg& msg) {
  sim::Time t = nic_config().per_msg_setup;
  if (outstanding_[static_cast<std::size_t>(msg.src)] >
      cfg_.dma_queue_depth) {
    // Descriptor queue overflow: the NIC must spill/refetch descriptors.
    t += cfg_.queue_overflow_penalty;
  }
  if (msg.src == msg.dst) {
    // NIC loopback path: Quadrics MPI has no shared-memory shortcut.
    t += cfg_.loopback_penalty;
  }
  return t;
}

sim::Time ElanFabric::tx_stall(const model::NetMsg& msg) {
  return mmu_[static_cast<std::size_t>(msg.src)].access(msg.src_addr,
                                                        msg.bytes);
}

sim::Time ElanFabric::rx_stall(const model::NetMsg& msg) {
  if (msg.dst_addr == 0) return sim::Time::zero();  // NIC-buffer delivery
  return mmu_[static_cast<std::size_t>(msg.dst)].access(msg.dst_addr,
                                                        msg.bytes);
}

void ElanFabric::on_posted(const model::NetMsg& msg) {
  ++outstanding_[static_cast<std::size_t>(msg.src)];
}

void ElanFabric::on_delivered(const model::NetMsg& msg) {
  --outstanding_[static_cast<std::size_t>(msg.src)];
}

void ElanFabric::on_aborted(const model::NetMsg& msg) {
  --outstanding_[static_cast<std::size_t>(msg.src)];
}

sim::Time ElanFabric::degrade_delay(const model::NetMsg&, int round) const {
  // Escalation semantics: hardware retry is invisible to software until
  // the ladder tops out. The first degraded DMA pays the full capped
  // backoff before elanlib's error trap arms; after that the trap fires
  // on the first timeout and the error word surfaces immediately.
  return round == 1 ? cfg_.recovery.backoff_cap : cfg_.recovery.rto;
}

void ElanFabric::register_audits(audit::AuditReport& report) {
  NetFabric::register_audits(report);
  report.add_check("elan::ElanFabric", [this](audit::AuditReport::Scope& s) {
    for (std::size_t n = 0; n < node_count(); ++n) {
      s.require_eq(outstanding_[n], std::size_t{0},
                   "node " + std::to_string(n) +
                       ": QDMA descriptor(s) never retired");
      s.require_eq(memory_bytes(static_cast<int>(n)), cfg_.memory_bytes,
                   "node " + std::to_string(n) +
                       ": Elan memory footprint is not flat");
    }
  });
}

void ElanFabric::post_hw_broadcast(int src, std::uint64_t bytes,
                                   std::uint64_t src_addr,
                                   std::function<void()> on_delivered) {
  // Source MMU walk still applies before the hardware fan-out.
  const sim::Time stall =
      mmu_[static_cast<std::size_t>(src)].access(src_addr, bytes);
  post_switch_broadcast(src, bytes, stall, std::move(on_delivered));
}

}  // namespace mns::elan
