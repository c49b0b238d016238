// Non-blocking request handles.
#pragma once

#include <cstdint>
#include <memory>

#include "audit/audit.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace mns::mpi {

/// Conservation bookkeeping for requests, owned by the Mpi job: at
/// finalize every created request must be completed exactly once. The
/// double-complete count makes the violation visible in every build; in
/// audit builds the MNS_AUDIT in complete() additionally throws at the
/// offending call site.
struct RequestLedger {
  std::uint64_t created = 0;
  std::uint64_t completed = 0;
  std::uint64_t double_completed = 0;
};

struct RequestState {
  explicit RequestState(sim::Engine& eng, RequestLedger* ledger = nullptr)
      : trig(eng), ledger(ledger) {
    if (ledger) ++ledger->created;
  }

  void complete(const Status& s) {
    MNS_AUDIT(!done, "RequestState completed twice");
    if (ledger) {
      if (done) {
        ++ledger->double_completed;
      } else {
        ++ledger->completed;
      }
    }
    status = s;
    done = true;
    trig.fire();
  }

  bool done = false;
  Status status{};
  sim::Trigger trig;
  RequestLedger* ledger = nullptr;
};

/// Shared handle; copyable like an MPI_Request. A default-constructed
/// Request is the "null request": already complete with an empty Status.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  bool done() const { return !st_ || st_->done; }
  const Status& status() const {
    static const Status kEmpty{};
    return st_ ? st_->status : kEmpty;
  }

  /// Awaitable completion; resolves immediately if already done.
  sim::Task<Status> await_done() const {
    if (st_ && !st_->done) co_await st_->trig.wait();
    co_return st_ ? st_->status : Status{};
  }

  RequestState* state() const { return st_.get(); }

 private:
  std::shared_ptr<RequestState> st_;
};

}  // namespace mns::mpi
