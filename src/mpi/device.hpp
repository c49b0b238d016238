// ADI-style device interface.
//
// Mirrors MPICH's layering: the public MPI API (Comm) sits on an abstract
// device; each interconnect provides one. All host-side initiation work is
// coroutine-shaped so it charges the calling rank's simulated CPU;
// completion flows back through RequestState.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "mpi/matcher.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/task.hpp"

namespace mns::mpi {

struct SendOp {
  Envelope env;
  View buf;
  /// MPI_Ssend semantics: complete only after the receiver matched.
  bool synchronous = false;
  std::shared_ptr<RequestState> req;
};

/// Completion Status of the message `env` describes.
inline Status status_of(const Envelope& env) {
  return Status{env.src, env.tag, env.bytes};
}
/// The same, failed: the fabric exhausted its recovery budget.
inline Status error_status(const Envelope& env) {
  return Status{env.src, env.tag, env.bytes, kErrFabric};
}

/// Cost of matching an arrival against `m`'s posted queue: MPICH (on the
/// host) and the Elan (in NIC memory) walk it linearly, and every entry
/// beyond the first costs `per_entry`.
inline sim::Time match_scan_cost(const Matcher& m, sim::Time per_entry) {
  const std::size_t posted = m.posted_count();
  return posted > 1 ? per_entry * static_cast<std::int64_t>(posted - 1)
                    : sim::Time::zero();
}

/// A transport failure's "error envelope": it goes through the receiver's
/// matcher exactly as the lost message would have, so a posted (or
/// future) receive completes with Status::error == kErrFabric instead of
/// waiting forever. Callers gate and charge it as their arrivals are.
inline void deliver_error_envelope(Matcher& matcher, const Envelope& env) {
  if (auto pr = matcher.match_arrival(env)) {
    pr->req->complete(error_status(env));
    return;
  }
  matcher.add_unexpected(
      // simcheck-allow: coro-ref-escape (closure owned by the Unexpected
      // that Comm::irecv_impl's frame holds across co_await claim)
      {env, [env](PostedRecv pr) -> sim::Task<void> {
         pr.req->complete(error_status(env));
         co_return;
       }});
}

class Device {
 public:
  virtual ~Device() = default;

  /// Initiate a send from the sender rank's coroutine. Returns once the
  /// send is locally initiated (eager handed to the NIC / rendezvous RTS
  /// posted); op.req completes when MPI semantics allow buffer reuse.
  virtual sim::Task<void> start_send(SendOp op) = 0;

  /// Host cost of posting a receive (beyond matching).
  virtual sim::Time recv_post_cost() const { return sim::Time::zero(); }

  /// Which small-message allreduce the era's MPICH base used: recursive
  /// doubling arrived with MPICH 1.2.5 (MPICH-GM); older bases (MVAPICH's
  /// 1.2.2) composed reduce + bcast — the reason the paper's Fig. 12 shows
  /// InfiniBand losing allreduce despite winning raw latency.
  virtual bool allreduce_recursive_doubling() const { return false; }

  /// Elan-style hardware collective support.
  virtual bool has_hw_broadcast() const { return false; }
  /// Fire-and-callback hardware broadcast of `bytes` from `root`'s node to
  /// every node; devices without support must not be asked.
  virtual void hw_broadcast(Rank /*root*/, std::uint64_t /*bytes*/,
                            std::uint64_t /*addr*/,
                            std::function<void()> /*done*/) {
    throw std::logic_error("device has no hardware broadcast");
  }

  /// MPI library memory footprint on `node` (paper Fig. 13).
  virtual std::uint64_t memory_bytes(int node) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace mns::mpi
