// Factories assembling the three MPI devices with their calibrated
// channel parameters (thresholds and host overheads from the paper's
// micro-benchmarks, Section 3).
#pragma once

#include <memory>

#include "elan/elan_fabric.hpp"
#include "mpi/ch_elan.hpp"
#include "mpi/ch_rdv.hpp"

namespace mns::mpi {

/// MVAPICH-style device: eager below 2 KB over the RDMA ring, rendezvous
/// with registration above; shared memory intra-node below 16 KB, NIC
/// loopback above.
RdvChannelConfig default_ch_ib_config();

/// MPICH-GM-style device: copy-eager below 16 KB, directed-send rendezvous
/// above; shared memory for all intra-node sizes.
RdvChannelConfig default_ch_gm_config();

/// The eager/rendezvous device over either fabric with per-node pin-down
/// caches (ib::IbFabric for ch_ib, gm::GmFabric for ch_gm).
template <class Fabric>
std::unique_ptr<Device> make_ch_rdv(Mpi& mpi, Fabric& fabric,
                                    const RdvChannelConfig& cfg) {
  return std::make_unique<RdvChannel>(
      mpi, fabric, cfg,
      [&fabric](int node) -> model::RegistrationCache& {
        return fabric.regcache(node);
      },
      [&fabric](int node) { return fabric.memory_bytes(node); });
}

std::unique_ptr<Device> make_ch_elan(Mpi& mpi, elan::ElanFabric& fabric,
                                     const ElanChannelConfig& cfg);

}  // namespace mns::mpi
