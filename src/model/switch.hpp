// Crossbar switch model.
//
// All three interconnects in the paper use single-stage crossbar switches
// (InfiniScale 8-port, Myrinet-2000 8-port, Elite 16-port). We model a
// full crossbar: every output port is an independent serializing Pipe at
// link rate, plus a fixed port-to-port forwarding latency. Contention
// therefore only arises on output ports — exactly the crossbar guarantee.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "model/pipe.hpp"

namespace mns::model {

struct SwitchConfig {
  std::size_t ports;
  double port_bytes_per_second;  // per-output-port forwarding rate
  sim::Time forward_latency;     // crossbar traversal (cut-through setup)
  /// 0: one full crossbar (the paper's testbed). >0: two-level fat tree
  /// with leaves of this radix (see model/topology.hpp).
  std::size_t fat_tree_radix = 0;
};

class CrossbarSwitch {
 public:
  CrossbarSwitch(sim::Engine& eng, const SwitchConfig& cfg) : cfg_(cfg) {
    out_.reserve(cfg.ports);
    for (std::size_t i = 0; i < cfg.ports; ++i) {
      out_.emplace_back(eng, cfg.port_bytes_per_second, cfg.forward_latency);
    }
  }

  /// Forward one packet to output port `dst`.
  Pipe::Slot forward(std::size_t dst, std::uint64_t bytes) {
    return port(dst).transfer(bytes);
  }

  Pipe& port(std::size_t dst) {
    if (dst >= out_.size()) throw std::out_of_range("switch port");
    return out_[dst];
  }

  std::size_t ports() const { return out_.size(); }

  const SwitchConfig& config() const { return cfg_; }

 private:
  SwitchConfig cfg_;
  std::vector<Pipe> out_;
};

}  // namespace mns::model
