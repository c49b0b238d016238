// The eager/rendezvous channel device used by MPI-over-InfiniBand
// (MVAPICH-style) and MPI-over-GM (MPICH-GM-style). The two differ only in
// parameters and fabric:
//
//   eager  (bytes < eager_threshold): payload is copied through
//          pre-registered staging at both ends; the send completes when
//          the data has left the sender NIC.
//   rendezvous (>= threshold): the user buffer is registered through the
//          pin-down cache, an RTS control message is sent, the receiver
//          matches + registers its buffer + returns a CTS, and the data
//          moves zero-copy (RDMA write / directed send). Send completes on
//          delivery (the transport-level ack).
//
// Crucially, the RTS and CTS handlers need the HOST: if the rank is
// computing outside MPI when they arrive, handling is deferred to its next
// MPI call (Proc::host_action). That single mechanism produces the paper's
// Fig. 6 overlap plateau for InfiniBand and Myrinet.
//
// Intra-node messages below `smp_threshold` ride the shared-memory domain;
// at or above it they use the fabric's NIC loopback path (what MVAPICH
// does; MPICH-GM sets the threshold to infinity and uses shm for
// everything).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/netfabric.hpp"
#include "model/regcache.hpp"
#include "mpi/device.hpp"
#include "mpi/mpi.hpp"
#include "shm/shm_domain.hpp"

namespace mns::mpi {

struct RdvChannelConfig {
  std::string name;
  std::uint64_t eager_threshold;  // below: eager; at/above: rendezvous
  std::uint64_t smp_threshold;    // intra-node: below -> shm, else loopback
  sim::Time o_send;               // host CPU per send
  sim::Time o_recv;               // host CPU per receive completion
  sim::Time o_ctrl;               // host CPU handling RTS/CTS
  sim::Time o_match_entry;        // host cost per extra posted-queue entry
                                  // scanned while matching an arrival
  bool allreduce_recursive_doubling = false;  // MPICH >= 1.2.5 algorithm
  /// Ablation: pretend the NIC (or a progress thread) runs the protocol
  /// handlers, i.e. never defer them while the host computes.
  bool nic_progress = false;
  std::uint64_t ctrl_bytes;       // RTS/CTS/header wire size
  /// Extension (the paper's Section 3.7 direction, after Kini et al.):
  /// barrier/broadcast over InfiniBand hardware multicast instead of
  /// point-to-point trees. Needs a reliability envelope on top of the
  /// unreliable multicast, modelled as a fixed software overhead.
  bool hw_multicast = false;
  sim::Time hw_bcast_overhead = sim::Time::zero();
  shm::ShmConfig shm;
};

class RdvChannel final : public Device {
 public:
  RdvChannel(Mpi& mpi, model::NetFabric& fabric, RdvChannelConfig cfg,
             std::function<model::RegistrationCache&(int)> regcache,
             std::function<std::uint64_t(int)> memory);

  sim::Task<void> start_send(SendOp op) override;
  bool has_hw_broadcast() const override { return cfg_.hw_multicast; }
  void hw_broadcast(Rank root, std::uint64_t bytes, std::uint64_t addr,
                    std::function<void()> done) override;
  bool allreduce_recursive_doubling() const override {
    return cfg_.allreduce_recursive_doubling;
  }
  std::uint64_t memory_bytes(int node) const override;
  const char* name() const override { return cfg_.name.c_str(); }

  const RdvChannelConfig& config() const { return cfg_; }

 private:
  struct RdvState {
    SendOp send;
    PostedRecv recv;
    bool recv_matched = false;
  };

  sim::Task<void> send_shm(SendOp op);
  sim::Task<void> send_eager(SendOp op);
  sim::Task<void> send_rendezvous(SendOp op);

  // Receiver-side handlers (event context, host-gated).
  /// An eager or shm message arrived with its payload buffered: match it
  /// and copy the payload out, or queue it unexpected. `base_cost` is the
  /// path's receive cost (copy-out, plus o_recv on the fabric).
  void on_buffered_arrival(Envelope env, std::shared_ptr<Payload> payload,
                           sim::Time base_cost);
  void on_rts(std::shared_ptr<RdvState> st);
  /// Host cost of answering a matched RTS: o_ctrl plus pinning the
  /// receive buffer (regcache side effects happen here).
  sim::Time cts_cost(const RdvState& st) const;
  /// Post the CTS back to the sender.
  void post_cts(std::shared_ptr<RdvState> st);
  void on_cts(std::shared_ptr<RdvState> st);
  void post_rendezvous_data(std::shared_ptr<RdvState> st);

  // Graceful degradation under fabric faults (ISSUE: chaos harness).
  /// Route a transport-failure "error envelope" through the receiver's
  /// matcher so its (posted or future) receive completes with an error
  /// Status instead of hanging.
  void fail_recv_side(const Envelope& env, int from_node);
  /// A rendezvous leg (RTS/CTS/data/FIN) exhausted the fabric's retry
  /// budget: complete both sides with an error Status.
  void fail_rendezvous(std::shared_ptr<RdvState> st, int from_node);

  /// Runs a protocol action now (nic_progress) or host-gated.
  void host_gated(Proc& proc, std::function<void()> fn) const;

  Mpi* mpi_;
  model::NetFabric* fabric_;
  RdvChannelConfig cfg_;
  std::function<model::RegistrationCache&(int)> regcache_;
  std::function<std::uint64_t(int)> memory_;
  std::vector<std::unique_ptr<shm::ShmDomain>> shm_;  // per node
};

}  // namespace mns::mpi
