// Per-rank process state: simulated CPU, matcher, deferred protocol work.
//
// The deferred queue is the heart of the paper's overlap story. When a
// message/handshake event arrives for a rank whose host is *computing*
// (outside MPI), implementations without NIC-side protocol engines cannot
// react until the application re-enters the library. Devices call
// `host_action`: it runs the action immediately if the rank is inside an
// MPI call (including blocked in a wait, where the host spins on
// completion), and defers it to the next MPI entry otherwise.
#pragma once

#include <deque>
#include <functional>

#include "model/pipe.hpp"
#include "mpi/matcher.hpp"
#include "sim/engine.hpp"

namespace mns::mpi {

class Proc {
 public:
  Proc(sim::Engine& eng, Rank rank, int node, int slot)
      : cpu_(eng), host_work_(eng, 1e12), rank_(rank), node_(node),
        slot_(slot) {}

  sim::Cpu& cpu() { return cpu_; }
  /// Serializes event-context host work (message delivery processing):
  /// the rank has ONE CPU, so concurrent arrivals queue — this is what
  /// makes incast patterns (alltoall fan-in) expensive.
  model::Pipe& host_work() { return host_work_; }
  Matcher& matcher() { return matcher_; }
  Rank rank() const { return rank_; }
  int node() const { return node_; }
  int slot() const { return slot_; }  // position within the node (SMP)

  /// Run `fn` now if the host is attentive (inside MPI), else defer it to
  /// the next MPI entry.
  void host_action(std::function<void()> fn) {
    if (cpu_.in_mpi()) {
      fn();
    } else {
      deferred_.push_back(std::move(fn));
    }
  }

  /// Called on every MPI entry: run everything that piled up while the
  /// application was computing.
  void drain_deferred() {
    while (!deferred_.empty()) {
      auto fn = std::move(deferred_.front());
      deferred_.pop_front();
      fn();
    }
  }

  std::size_t deferred_pending() const { return deferred_.size(); }

 private:
  sim::Cpu cpu_;
  model::Pipe host_work_;
  Matcher matcher_;
  Rank rank_;
  int node_;
  int slot_;
  std::deque<std::function<void()>> deferred_;
};

}  // namespace mns::mpi
