// The public MPI-like API. One Comm object per rank, all sharing the Mpi
// job. Calls are coroutines awaited inside the rank's simulated process.
//
// Naming follows MPI-1 (send/recv/isend/irecv/wait/collectives); buffers
// are Views (real or synthetic; see mpi/types.hpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
#include "prof/trace.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/task.hpp"

namespace mns::mpi {

/// Element-wise reduction of `in` into `inout` (both real Views of `count`
/// elements of `dtype`). No-op when either view is synthetic.
void reduce_payload(const View& in, const View& inout, std::size_t count,
                    Dtype dtype, ROp op);

class Comm {
 public:
  Comm(Mpi& mpi, Rank rank) : mpi_(&mpi), rank_(rank) {}

  Rank rank() const { return rank_; }
  int size() const { return static_cast<int>(mpi_->size()); }
  Mpi& job() const { return *mpi_; }
  sim::Cpu& cpu() const { return mpi_->proc(rank_).cpu(); }

  /// Simulated wall-clock in seconds (MPI_Wtime).
  double wtime() const { return mpi_->engine().now().to_seconds(); }
  /// Exact simulated time (the job's engine clock).
  sim::Time now() const { return mpi_->engine().now(); }

  /// Application computation for `seconds` (outside MPI: devices without
  /// NIC-side protocol engines cannot make rendezvous progress meanwhile).
  sim::Task<void> compute(double seconds);

  // --- point-to-point ----------------------------------------------------

  sim::Task<void> send(View buf, Rank dst, Tag tag);
  sim::Task<Status> recv(View buf, Rank src = kAnySource, Tag tag = kAnyTag);
  sim::Task<Request> isend(View buf, Rank dst, Tag tag);
  sim::Task<Request> irecv(View buf, Rank src = kAnySource,
                           Tag tag = kAnyTag);
  sim::Task<Status> wait(Request req);
  sim::Task<void> wait_all(std::vector<Request> reqs);
  /// Non-blocking probe: peek the unexpected queue for a matching
  /// envelope without receiving it (MPI_Iprobe).
  bool iprobe(Rank src, Tag tag, Status* status = nullptr);
  /// Blocking probe: wait until a matching message has arrived
  /// (MPI_Probe). The message stays queued for a later recv.
  sim::Task<Status> probe(Rank src, Tag tag);
  /// Synchronous send (MPI_Ssend): completes only once the receiver has
  /// matched the message, regardless of size.
  sim::Task<void> ssend(View buf, Rank dst, Tag tag);
  /// Combined exchange (MPI_Sendrecv): both directions in flight at once.
  sim::Task<Status> sendrecv(View sendbuf, Rank dst, Tag stag, View recvbuf,
                             Rank src, Tag rtag);

  // --- collectives (COMM_WORLD) -------------------------------------------
  //
  // All ranks must call each collective in the same order. Algorithms are
  // MPICH-style point-to-point compositions; barrier/bcast use the Elan
  // hardware broadcast when the device provides one.

  sim::Task<void> barrier();
  sim::Task<void> bcast(View buf, Rank root);
  /// In-place allreduce over `count` elements held in `buf`.
  sim::Task<void> allreduce(View buf, std::size_t count, Dtype dtype,
                            ROp op);
  sim::Task<void> reduce(View buf, std::size_t count, Dtype dtype, ROp op,
                         Rank root);
  /// Each rank contributes `per_rank` bytes to every rank. `sendbuf` and
  /// `recvbuf` are the full size*per_rank regions.
  sim::Task<void> alltoall(View sendbuf, View recvbuf,
                           std::uint64_t per_rank);
  /// Variable alltoall: rank r receives send_counts[r] bytes of this
  /// rank's sendbuf (packed contiguously in rank order); recv_counts are
  /// this rank's incoming sizes in source-rank order.
  sim::Task<void> alltoallv(View sendbuf,
                            const std::vector<std::uint64_t>& send_counts,
                            View recvbuf,
                            const std::vector<std::uint64_t>& recv_counts);
  sim::Task<void> allgather(View sendpart, View recvbuf,
                            std::uint64_t per_rank);
  sim::Task<void> gather(View sendpart, View recvbuf, std::uint64_t per_rank,
                         Rank root);
  sim::Task<void> scatter(View sendbuf, View recvpart,
                          std::uint64_t per_rank, Rank root);
  sim::Task<void> reduce_scatter_block(View buf, std::size_t count_per_rank,
                                       Dtype dtype, ROp op, View out);
  /// Inclusive prefix reduction (MPI_Scan): rank r ends with the
  /// combination of ranks 0..r.
  sim::Task<void> scan(View buf, std::size_t count, Dtype dtype, ROp op);
  /// Variable-size gather/scatter (MPI_Gatherv / MPI_Scatterv); counts are
  /// per-rank byte sizes, significant at the root on every rank for
  /// offsets.
  sim::Task<void> gatherv(View sendpart, View recvbuf,
                          const std::vector<std::uint64_t>& counts,
                          Rank root);
  sim::Task<void> scatterv(View sendbuf,
                           const std::vector<std::uint64_t>& counts,
                           View recvpart, Rank root);

  /// Outcome of this rank's most recent collective. kErrNone, or
  /// kErrFabric when a transport error surfaced anywhere in the
  /// collective. Under an armed fail-stop fault plan every collective
  /// runs an error-agreement epilogue, so all live ranks observe the
  /// SAME value here after the same collective — no rank returns "ok"
  /// while a peer saw its subtree die.
  int last_error() const { return last_error_; }

 private:
  /// Record a trace event if the job has a tracer installed.
  void trace(prof::EventKind kind, const char* op, Rank peer,
             std::uint64_t bytes, double t_start) const;

  sim::Task<void> barrier_impl();
  sim::Task<void> bcast_impl(View buf, Rank root);
  sim::Task<void> allreduce_impl(View buf, std::size_t count, Dtype dtype, ROp op);
  sim::Task<void> reduce_impl(View buf, std::size_t count, Dtype dtype, ROp op, Rank root);
  sim::Task<void> alltoall_impl(View sendbuf, View recvbuf, std::uint64_t per_rank);
  sim::Task<void> alltoallv_impl(View sendbuf, const std::vector<std::uint64_t>& send_counts, View recvbuf, const std::vector<std::uint64_t>& recv_counts);
  sim::Task<void> allgather_impl(View sendpart, View recvbuf, std::uint64_t per_rank);
  sim::Task<void> gather_impl(View sendpart, View recvbuf, std::uint64_t per_rank, Rank root);
  sim::Task<void> scatter_impl(View sendbuf, View recvpart, std::uint64_t per_rank, Rank root);
  sim::Task<void> reduce_scatter_block_impl(View buf, std::size_t count_per_rank, Dtype dtype, ROp op, View out);
  sim::Task<void> scan_impl(View buf, std::size_t count, Dtype dtype, ROp op);
  sim::Task<void> gatherv_impl(View sendpart, View recvbuf, const std::vector<std::uint64_t>& counts, Rank root);
  sim::Task<void> scatterv_impl(View sendbuf, const std::vector<std::uint64_t>& counts, View recvpart, Rank root);

  /// `synchronous`: MPI_Ssend semantics (see SendOp).
  sim::Task<Request> isend_impl(View buf, Rank dst, Tag tag,
                                bool synchronous = false);
  sim::Task<Request> irecv_impl(View buf, Rank src, Tag tag);
  /// Subview helper for collective algorithms on real/synthetic buffers.
  static View slice(const View& v, std::uint64_t offset, std::uint64_t len);
  /// Next collective tag/slot id (same sequence on every rank).
  Tag next_coll_tag();

  sim::Task<Status> sendrecv_internal(View sendbuf, Rank dst, Tag stag,
                                      View recvbuf, Rank src, Tag rtag);
  /// Internal collective building blocks. Both return the error envelope
  /// accumulated over their point-to-point legs (kErrNone or kErrFabric)
  /// instead of hiding it: a dead link errors the affected wait rather
  /// than hanging it, and the collective threads the verdict through to
  /// the agreement epilogue.
  sim::Task<int> bcast_p2p(View buf, Rank root, Tag tag);
  sim::Task<int> reduce_p2p(View buf, std::size_t count, Dtype dtype, ROp op,
                            Rank root, Tag tag);
  /// Two-sweep deterministic error agreement (fail-stop plans only).
  /// Each sweep is a binomial fan-in to rank 0 followed by a binomial
  /// fan-out; the error bit travels in the token SIZE (1 byte = clean,
  /// 2 bytes = error), so a rank that cannot hear the verdict because
  /// its own path died observes the error anyway — the failed delivery
  /// completes its receive with kErrFabric. With permanent (fail-stop)
  /// faults and a single error class, two sweeps make every live rank
  /// leave with the same value even when the fault first manifests
  /// during sweep one.
  sim::Task<int> agree_error(Tag tag, int err);
  /// Collective epilogue: runs agree_error under an armed fail-stop
  /// plan (transient-only runs skip it and stay bit-identical), then
  /// publishes the outcome to last_error().
  sim::Task<void> finish_collective(Tag tag, int err);

  Mpi* mpi_;
  Rank rank_;
  std::uint64_t coll_seq_ = 0;
  int last_error_ = kErrNone;
};

}  // namespace mns::mpi
