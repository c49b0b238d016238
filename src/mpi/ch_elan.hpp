// MPI device over Quadrics Tports.
//
// Tag matching runs ON the Elan NIC, so — unlike ch_ib/ch_gm — arrival
// handlers never wait for the host: a message arriving while the
// application computes is matched and delivered immediately. Combined with
// the absence of a rendezvous handshake, this is what gives Quadrics its
// steadily-growing overlap potential (paper Fig. 6) at the price of higher
// host overhead per descriptor (Fig. 3).
//
// Intra-node traffic loops through the NIC (the fabric charges its
// loopback penalty): Quadrics' MPI has no effective shared-memory path,
// making intra-node latency *worse* than inter-node (Fig. 9).
#pragma once

#include <memory>
#include <vector>

#include "elan/elan_fabric.hpp"
#include "mpi/device.hpp"
#include "mpi/mpi.hpp"

namespace mns::mpi {

struct ElanChannelConfig {
  sim::Time o_send;            // host CPU posting a Tport send descriptor
  sim::Time o_recv;            // host CPU posting/completing a receive
  sim::Time o_unexpected;      // extra host cost claiming a buffered message
  sim::Time o_complete;        // host cost reaping a completed receive
  sim::Time nic_match_per_entry;  // Elan NIC scan cost per extra posted
                                  // receive it walks during tag matching
  sim::Time hw_bcast_overhead;  // software envelope around the hardware
                                // broadcast (descriptor + completion)
  bool use_hw_bcast = true;     // ablation: fall back to p2p collectives
  std::uint64_t ctrl_bytes;    // Tport header wire size
  std::uint64_t buffered_max;  // sends <= this complete at NIC-clear
};

ElanChannelConfig default_elan_channel_config();

class ElanChannel final : public Device {
 public:
  ElanChannel(Mpi& mpi, elan::ElanFabric& fabric, ElanChannelConfig cfg);

  sim::Task<void> start_send(SendOp op) override;
  sim::Time recv_post_cost() const override { return cfg_.o_recv; }
  bool has_hw_broadcast() const override { return cfg_.use_hw_bcast; }
  void hw_broadcast(Rank root, std::uint64_t bytes, std::uint64_t addr,
                    std::function<void()> done) override;
  std::uint64_t memory_bytes(int node) const override;
  const char* name() const override { return "ch_elan"; }

 private:
  void on_arrival(Envelope env,
                  std::shared_ptr<Payload> payload_slot,
                  View src_view,
                  std::shared_ptr<RequestState> sync_req);

  Mpi* mpi_;
  elan::ElanFabric* fabric_;
  ElanChannelConfig cfg_;
};

}  // namespace mns::mpi
