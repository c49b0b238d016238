// Collective algorithms, MPICH-1.2.x style: point-to-point compositions
// (binomial broadcast/reduce, allreduce = reduce + bcast, alltoall as a
// full non-blocking exchange, ring allgather), with a hardware fast path
// for barrier/bcast on devices that broadcast in the switch (Quadrics).
//
// Internal point-to-point traffic deliberately bypasses the profiler: the
// paper's MPICH logging counts MPI-level calls, so a collective is one
// logged call regardless of how many wire messages implement it.
#include <cstring>
#include <vector>

#include "mpi/comm.hpp"

namespace mns::mpi {

namespace {
/// Synthetic scratch identity for library-internal temporaries. These are
/// the same (reused) library buffers every time, so they hit warm in the
/// registration caches — like the real implementations' pre-registered
/// collective staging areas.
std::uint64_t scratch_addr(Rank r, int which) {
  return 0xF000'0000'0000ULL + (static_cast<std::uint64_t>(r) << 24) +
         (static_cast<std::uint64_t>(which) << 8);
}
}  // namespace

sim::Task<void> Comm::barrier_impl() {
  mpi_->recorder().on_collective(rank_, "Barrier", 0, 0);
  const std::uint64_t seq = coll_seq_;
  const Tag tag = next_coll_tag();
  const int p = size();
  if (p == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  if (mpi_->device().has_hw_broadcast()) {
    // Binomial fan-in to rank 0, then one hardware broadcast releases
    // everyone (the Kini et al. structure: log-depth gather, O(1)
    // release).
    auto& slot = mpi_->collective_slot(seq);
    View tok = View::synth(scratch_addr(rank_, 6), 4);
    const int err = co_await reduce_p2p(tok, 1, Dtype::kByte, ROp::kMax, 0,
                                        tag);
    if (rank_ == 0) {
      mpi_->device().hw_broadcast(0, 4, scratch_addr(0, 0),
                                  [&slot] { slot.trig.fire(); });
    }
    co_await slot.trig.wait();
    if (++slot.arrived == p) mpi_->drop_collective_slot(seq);
    co_await finish_collective(tag, err);
    co_return;
  }

  // Dissemination barrier.
  int err = kErrNone;
  for (int k = 1; k < p; k <<= 1) {
    const Rank dst = (rank_ + k) % p;
    const Rank src = (rank_ - k + p) % p;
    View sv = View::synth(scratch_addr(rank_, 1), 4);
    View rv = View::synth(scratch_addr(rank_, 2), 4);
    Request rreq = co_await irecv_impl(rv, src, tag);
    Request sreq = co_await isend_impl(sv, dst, tag);
    const Status sst = co_await wait(sreq);
    const Status rst = co_await wait(rreq);
    if (sst.error != kErrNone || rst.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<int> Comm::bcast_p2p(View buf, Rank root, Tag tag) {
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  int err = kErrNone;
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const Rank src = (rel - mask + root) % p;
      Request r = co_await irecv_impl(buf, src, tag);
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const Rank dst = (rel + mask + root) % p;
      Request r = co_await isend_impl(buf, dst, tag);
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
    mask >>= 1;
  }
  co_return err;
}

sim::Task<void> Comm::bcast_impl(View buf, Rank root) {
  buf = mpi_->canon(buf);
  mpi_->recorder().on_collective(rank_, "Bcast", buf.bytes(), buf.addr());
  const std::uint64_t seq = coll_seq_;
  const Tag tag = next_coll_tag();
  if (size() == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  if (mpi_->device().has_hw_broadcast()) {
    auto& slot = mpi_->collective_slot(seq);
    if (rank_ == root) {
      slot.stage_payload(buf);
      mpi_->device().hw_broadcast(root, buf.bytes(), buf.addr(),
                                  [&slot] { slot.trig.fire(); });
    }
    co_await slot.trig.wait();
    if (rank_ != root) copy_payload(slot.payload, buf, buf.bytes());
    if (++slot.arrived == size()) mpi_->drop_collective_slot(seq);
    co_await finish_collective(tag, kErrNone);
    co_return;
  }
  const int err = co_await bcast_p2p(buf, root, tag);
  co_await finish_collective(tag, err);
}

sim::Task<int> Comm::reduce_p2p(View buf, std::size_t count, Dtype dtype,
                                ROp op, Rank root, Tag tag) {
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  const std::uint64_t bytes = buf.bytes();
  int err = kErrNone;

  std::vector<std::byte> tmp_store;
  View tmp;
  if (buf.synthetic()) {
    tmp = View::synth(scratch_addr(rank_, 3), bytes);
  } else {
    tmp_store.resize(static_cast<std::size_t>(bytes));
    tmp = View::out(tmp_store.data(), bytes);
  }

  int mask = 1;
  while (mask < p) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p) {
        const Rank src = (src_rel + root) % p;
        Request r = co_await irecv_impl(tmp, src, tag);
        const Status st = co_await wait(r);
        if (st.error != kErrNone) err = kErrFabric;
        reduce_payload(tmp, buf, count, dtype, op);
      }
    } else {
      const Rank dst = ((rel & ~mask) + root) % p;
      Request r = co_await isend_impl(buf, dst, tag);
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
      break;
    }
    mask <<= 1;
  }
  co_return err;
}

sim::Task<void> Comm::reduce_impl(View buf, std::size_t count, Dtype dtype,
                             ROp op, Rank root) {
  buf = mpi_->canon(buf);
  mpi_->recorder().on_collective(rank_, "Reduce", buf.bytes(), buf.addr());
  const Tag tag = next_coll_tag();
  if (size() == 1) {
    last_error_ = kErrNone;
    co_return;
  }
  const int err = co_await reduce_p2p(buf, count, dtype, op, root, tag);
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::allreduce_impl(View buf, std::size_t count, Dtype dtype,
                                ROp op) {
  buf = mpi_->canon(buf);
  mpi_->recorder().on_collective(rank_, "Allreduce", buf.bytes(),
                                 buf.addr());
  const std::uint64_t seq = coll_seq_;
  const Tag tag = next_coll_tag();
  if (size() == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  const int p = size();
  int err = kErrNone;
  if (mpi_->device().allreduce_recursive_doubling() && (p & (p - 1)) == 0) {
    // MPICH >= 1.2.5 (MPICH-GM): recursive doubling, log2(p) exchanges.
    std::vector<std::byte> tmp_store;
    View tmp;
    if (buf.synthetic()) {
      tmp = View::synth(scratch_addr(rank_, 4), buf.bytes());
    } else {
      tmp_store.resize(static_cast<std::size_t>(buf.bytes()));
      tmp = View::out(tmp_store.data(), buf.bytes());
    }
    for (int mask = 1; mask < p; mask <<= 1) {
      const Rank partner = rank_ ^ mask;
      const Status st =
          co_await sendrecv_internal(buf, partner, tag, tmp, partner, tag);
      if (st.error != kErrNone) err = kErrFabric;
      reduce_payload(tmp, buf, count, dtype, op);
    }
    co_await finish_collective(tag, err);
    co_return;
  }

  // Older MPICH bases (MVAPICH's 1.2.2, Quadrics' 1.2.4): allreduce =
  // reduce to 0, then broadcast. On Quadrics the broadcast half rides the
  // hardware (paper Fig. 12's QSN advantage).
  err = co_await reduce_p2p(buf, count, dtype, op, 0, tag);
  if (mpi_->device().has_hw_broadcast()) {
    auto& slot = mpi_->collective_slot(seq);
    if (rank_ == 0) {
      slot.stage_payload(buf);
      mpi_->device().hw_broadcast(0, buf.bytes(), buf.addr(),
                                  [&slot] { slot.trig.fire(); });
    }
    co_await slot.trig.wait();
    if (rank_ != 0) copy_payload(slot.payload, buf, buf.bytes());
    if (++slot.arrived == size()) mpi_->drop_collective_slot(seq);
  } else {
    const int berr = co_await bcast_p2p(buf, 0, tag + 1);
    if (berr != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::alltoall_impl(View sendbuf, View recvbuf,
                               std::uint64_t per_rank) {
  sendbuf = mpi_->canon(sendbuf);
  recvbuf = mpi_->canon(recvbuf);
  mpi_->recorder().on_collective(rank_, "Alltoall", sendbuf.bytes(),
                                 sendbuf.addr());
  const Tag tag = next_coll_tag();
  const int p = size();

  // Self-block.
  copy_payload(slice(sendbuf, static_cast<std::uint64_t>(rank_) * per_rank,
                     per_rank),
               slice(recvbuf, static_cast<std::uint64_t>(rank_) * per_rank,
                     per_rank),
               per_rank);

  // Full non-blocking exchange (MPICH's small/medium algorithm): post all
  // receives, then all sends, then wait.
  std::vector<Request> reqs;
  reqs.reserve(2 * static_cast<std::size_t>(p - 1));
  for (int i = 1; i < p; ++i) {
    const Rank src = (rank_ - i + p) % p;
    reqs.push_back(co_await irecv_impl(
        slice(recvbuf, static_cast<std::uint64_t>(src) * per_rank, per_rank),
        src, tag));
  }
  for (int i = 1; i < p; ++i) {
    const Rank dst = (rank_ + i) % p;
    reqs.push_back(co_await isend_impl(
        slice(sendbuf, static_cast<std::uint64_t>(dst) * per_rank, per_rank),
        dst, tag));
  }
  int err = kErrNone;
  for (auto& r : reqs) {
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::alltoallv_impl(
    View sendbuf, const std::vector<std::uint64_t>& send_counts,
    View recvbuf, const std::vector<std::uint64_t>& recv_counts) {
  sendbuf = mpi_->canon(sendbuf);
  recvbuf = mpi_->canon(recvbuf);
  mpi_->recorder().on_collective(rank_, "Alltoallv", sendbuf.bytes(),
                                 sendbuf.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  if (send_counts.size() != static_cast<std::size_t>(p) ||
      recv_counts.size() != static_cast<std::size_t>(p)) {
    throw std::invalid_argument("alltoallv: counts must have one entry per rank");
  }
  std::vector<std::uint64_t> soff(static_cast<std::size_t>(p) + 1, 0);
  std::vector<std::uint64_t> roff(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r) {
    soff[r + 1] = soff[r] + send_counts[static_cast<std::size_t>(r)];
    roff[r + 1] = roff[r] + recv_counts[static_cast<std::size_t>(r)];
  }

  copy_payload(slice(sendbuf, soff[rank_], send_counts[static_cast<std::size_t>(rank_)]),
               slice(recvbuf, roff[rank_], recv_counts[static_cast<std::size_t>(rank_)]),
               send_counts[static_cast<std::size_t>(rank_)]);

  std::vector<Request> reqs;
  for (int i = 1; i < p; ++i) {
    const Rank src = (rank_ - i + p) % p;
    if (recv_counts[static_cast<std::size_t>(src)] == 0) continue;
    reqs.push_back(co_await irecv_impl(
        slice(recvbuf, roff[src], recv_counts[static_cast<std::size_t>(src)]),
        src, tag));
  }
  for (int i = 1; i < p; ++i) {
    const Rank dst = (rank_ + i) % p;
    if (send_counts[static_cast<std::size_t>(dst)] == 0) continue;
    reqs.push_back(co_await isend_impl(
        slice(sendbuf, soff[dst], send_counts[static_cast<std::size_t>(dst)]),
        dst, tag));
  }
  int err = kErrNone;
  for (auto& r : reqs) {
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::allgather_impl(View sendpart, View recvbuf,
                                std::uint64_t per_rank) {
  sendpart = mpi_->canon(sendpart);
  recvbuf = mpi_->canon(recvbuf);
  mpi_->recorder().on_collective(rank_, "Allgather", sendpart.bytes(),
                                 sendpart.addr());
  const Tag tag = next_coll_tag();
  const int p = size();

  copy_payload(sendpart,
               slice(recvbuf, static_cast<std::uint64_t>(rank_) * per_rank,
                     per_rank),
               per_rank);
  // Ring: pass blocks around p-1 times.
  int err = kErrNone;
  for (int step = 0; step < p - 1; ++step) {
    const Rank dst = (rank_ + 1) % p;
    const Rank src = (rank_ - 1 + p) % p;
    const int send_block = (rank_ - step + p) % p;
    const int recv_block = (rank_ - step - 1 + p) % p;
    const Status st = co_await sendrecv_internal(
        slice(recvbuf, static_cast<std::uint64_t>(send_block) * per_rank,
              per_rank),
        dst, tag,
        slice(recvbuf, static_cast<std::uint64_t>(recv_block) * per_rank,
              per_rank),
        src, tag);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::gather_impl(View sendpart, View recvbuf,
                             std::uint64_t per_rank, Rank root) {
  sendpart = mpi_->canon(sendpart);
  recvbuf = mpi_->canon(recvbuf);
  mpi_->recorder().on_collective(rank_, "Gather", sendpart.bytes(),
                                 sendpart.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  int err = kErrNone;
  if (rank_ == root) {
    copy_payload(sendpart,
                 slice(recvbuf, static_cast<std::uint64_t>(rank_) * per_rank,
                       per_rank),
                 per_rank);
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      reqs.push_back(co_await irecv_impl(
          slice(recvbuf, static_cast<std::uint64_t>(r) * per_rank, per_rank),
          r, tag));
    }
    for (auto& r : reqs) {
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
  } else {
    Request r = co_await isend_impl(sendpart, root, tag);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::scatter_impl(View sendbuf, View recvpart,
                              std::uint64_t per_rank, Rank root) {
  sendbuf = mpi_->canon(sendbuf);
  recvpart = mpi_->canon(recvpart);
  mpi_->recorder().on_collective(rank_, "Scatter", recvpart.bytes(),
                                 recvpart.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  int err = kErrNone;
  if (rank_ == root) {
    copy_payload(slice(sendbuf, static_cast<std::uint64_t>(rank_) * per_rank,
                       per_rank),
                 recvpart, per_rank);
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      reqs.push_back(co_await isend_impl(
          slice(sendbuf, static_cast<std::uint64_t>(r) * per_rank, per_rank),
          r, tag));
    }
    for (auto& r : reqs) {
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
  } else {
    Request r = co_await irecv_impl(recvpart, root, tag);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::reduce_scatter_block_impl(View buf,
                                           std::size_t count_per_rank,
                                           Dtype dtype, ROp op, View out) {
  buf = mpi_->canon(buf);
  out = mpi_->canon(out);
  mpi_->recorder().on_collective(rank_, "Reduce_scatter", buf.bytes(),
                                 buf.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  const std::uint64_t per_bytes = count_per_rank * dtype_size(dtype);
  // MPICH 1.x: reduce to root then scatter.
  int err = co_await reduce_p2p(buf,
                                count_per_rank * static_cast<std::size_t>(p),
                                dtype, op, 0, tag);
  if (rank_ == 0) {
    copy_payload(slice(buf, 0, per_bytes), out, per_bytes);
    std::vector<Request> reqs;
    for (int r = 1; r < p; ++r) {
      reqs.push_back(co_await isend_impl(
          slice(buf, static_cast<std::uint64_t>(r) * per_bytes, per_bytes),
          r, tag + 1));
    }
    for (auto& r : reqs) {
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
  } else {
    Request r = co_await irecv_impl(out, 0, tag + 1);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::scan_impl(View buf, std::size_t count, Dtype dtype,
                           ROp op) {
  buf = mpi_->canon(buf);
  mpi_->recorder().on_collective(rank_, "Scan", buf.bytes(), buf.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  if (p == 1) {
    last_error_ = kErrNone;
    co_return;
  }

  // Linear chain (MPICH 1.x): receive the running prefix from rank-1,
  // fold it in, pass the new prefix to rank+1.
  int err = kErrNone;
  std::vector<std::byte> tmp_store;
  View tmp;
  if (buf.synthetic()) {
    tmp = View::synth(scratch_addr(rank_, 5), buf.bytes());
  } else {
    tmp_store.resize(static_cast<std::size_t>(buf.bytes()));
    tmp = View::out(tmp_store.data(), buf.bytes());
  }
  if (rank_ > 0) {
    Request r = co_await irecv_impl(tmp, rank_ - 1, tag);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
    reduce_payload(tmp, buf, count, dtype, op);
  }
  if (rank_ + 1 < p) {
    Request r = co_await isend_impl(buf, rank_ + 1, tag);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::gatherv_impl(View sendpart, View recvbuf,
                              const std::vector<std::uint64_t>& counts,
                              Rank root) {
  sendpart = mpi_->canon(sendpart);
  recvbuf = mpi_->canon(recvbuf);
  mpi_->recorder().on_collective(rank_, "Gatherv", sendpart.bytes(),
                                 sendpart.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  if (counts.size() != static_cast<std::size_t>(p)) {
    throw std::invalid_argument("gatherv: one count per rank");
  }
  int err = kErrNone;
  if (rank_ == root) {
    std::vector<std::uint64_t> off(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r) off[r + 1] = off[r] + counts[r];
    copy_payload(sendpart, slice(recvbuf, off[root], counts[root]),
                 counts[root]);
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == root || counts[r] == 0) continue;
      reqs.push_back(co_await irecv_impl(
          slice(recvbuf, off[r], counts[r]), r, tag));
    }
    for (auto& r : reqs) {
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
  } else if (counts[static_cast<std::size_t>(rank_)] > 0) {
    Request r = co_await isend_impl(sendpart, root, tag);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<void> Comm::scatterv_impl(View sendbuf,
                               const std::vector<std::uint64_t>& counts,
                               View recvpart, Rank root) {
  sendbuf = mpi_->canon(sendbuf);
  recvpart = mpi_->canon(recvpart);
  mpi_->recorder().on_collective(rank_, "Scatterv", recvpart.bytes(),
                                 recvpart.addr());
  const Tag tag = next_coll_tag();
  const int p = size();
  if (counts.size() != static_cast<std::size_t>(p)) {
    throw std::invalid_argument("scatterv: one count per rank");
  }
  int err = kErrNone;
  if (rank_ == root) {
    std::vector<std::uint64_t> off(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r) off[r + 1] = off[r] + counts[r];
    copy_payload(slice(sendbuf, off[root], counts[root]), recvpart,
                 counts[root]);
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == root || counts[r] == 0) continue;
      reqs.push_back(co_await isend_impl(
          slice(sendbuf, off[r], counts[r]), r, tag));
    }
    for (auto& r : reqs) {
      const Status st = co_await wait(r);
      if (st.error != kErrNone) err = kErrFabric;
    }
  } else if (counts[static_cast<std::size_t>(rank_)] > 0) {
    Request r = co_await irecv_impl(recvpart, root, tag);
    const Status st = co_await wait(r);
    if (st.error != kErrNone) err = kErrFabric;
  }
  co_await finish_collective(tag, err);
}

sim::Task<Status> Comm::sendrecv_internal(View sendbuf, Rank dst, Tag stag,
                                          View recvbuf, Rank src, Tag rtag) {
  Request rreq = co_await irecv_impl(recvbuf, src, rtag);
  Request sreq = co_await isend_impl(sendbuf, dst, stag);
  const Status sst = co_await wait(sreq);
  Status rst = co_await wait(rreq);
  // The exchange is one logical operation: a failed send leg errors the
  // returned status even when the receive leg completed.
  if (sst.error != kErrNone) rst.error = sst.error;
  co_return rst;
}

sim::Task<int> Comm::agree_error(Tag tag, int err) {
  const int p = size();
  if (p == 1) co_return err;
  // Two sweeps of binomial fan-in to rank 0 + binomial fan-out, rooted at
  // 0 like reduce_p2p/bcast_p2p with root 0 (rel == rank_). The error bit
  // rides in the token SIZE: 1 byte = clean, 2 bytes = error. A receiver
  // infers "error" from either an oversized token or a failed delivery
  // (the transport completes the receive with kErrFabric when the
  // sender's path is dead), so the verdict crosses dead subtrees too.
  // Faults are permanent and there is one error class, so after sweep one
  // rank 0 holds the OR of every reachable rank's bit and sweep two
  // spreads a verdict that can no longer change.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const Tag t = tag + sweep;
    // Fan-in (binomial reduce structure, root 0).
    int mask = 1;
    while (mask < p) {
      if ((rank_ & mask) == 0) {
        const int src = rank_ | mask;
        if (src < p) {
          View rv = View::synth(scratch_addr(rank_, 7), 2);
          Request r = co_await irecv_impl(rv, src, t);
          const Status st = co_await wait(r);
          if (st.error != kErrNone || st.bytes > 1) err = kErrFabric;
        }
      } else {
        const Rank dst = rank_ & ~mask;
        View sv =
            View::synth(scratch_addr(rank_, 8), err == kErrNone ? 1 : 2);
        Request r = co_await isend_impl(sv, dst, t);
        const Status st = co_await wait(r);
        if (st.error != kErrNone) err = kErrFabric;
        break;
      }
      mask <<= 1;
    }
    // Fan-out (binomial bcast structure, root 0).
    int rmask = 1;
    while (rmask < p) {
      if (rank_ & rmask) {
        const Rank src = rank_ - rmask;
        View rv = View::synth(scratch_addr(rank_, 9), 2);
        Request r = co_await irecv_impl(rv, src, t);
        const Status st = co_await wait(r);
        if (st.error != kErrNone || st.bytes > 1) err = kErrFabric;
        break;
      }
      rmask <<= 1;
    }
    rmask >>= 1;
    while (rmask > 0) {
      if (rank_ + rmask < p) {
        const Rank dst = rank_ + rmask;
        View sv =
            View::synth(scratch_addr(rank_, 10), err == kErrNone ? 1 : 2);
        Request r = co_await isend_impl(sv, dst, t);
        const Status st = co_await wait(r);
        if (st.error != kErrNone) err = kErrFabric;
      }
      rmask >>= 1;
    }
  }
  co_return err;
}

sim::Task<void> Comm::finish_collective(Tag tag, int err) {
  if (mpi_->fail_stop_armed()) {
    // Collectives reserve tag..tag+1 for their own phases (stride 4, see
    // next_coll_tag); the agreement sweeps use tag+2 and tag+3.
    err = co_await agree_error(tag + 2, err);
  }
  last_error_ = err;
}


// --- traced public wrappers -------------------------------------------------

sim::Task<void> Comm::barrier() {
  const double tt0 = wtime();
  co_await barrier_impl();
  trace(prof::EventKind::kCollective, "Barrier", kAnySource, 0, tt0);
}

sim::Task<void> Comm::bcast(View buf, Rank root) {
  const double tt0 = wtime();
  co_await bcast_impl(buf, root);
  trace(prof::EventKind::kCollective, "Bcast", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::allreduce(View buf, std::size_t count, Dtype dtype, ROp op) {
  const double tt0 = wtime();
  co_await allreduce_impl(buf, count, dtype, op);
  trace(prof::EventKind::kCollective, "Allreduce", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::reduce(View buf, std::size_t count, Dtype dtype, ROp op, Rank root) {
  const double tt0 = wtime();
  co_await reduce_impl(buf, count, dtype, op, root);
  trace(prof::EventKind::kCollective, "Reduce", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::alltoall(View sendbuf, View recvbuf, std::uint64_t per_rank) {
  const double tt0 = wtime();
  co_await alltoall_impl(sendbuf, recvbuf, per_rank);
  trace(prof::EventKind::kCollective, "Alltoall", kAnySource, sendbuf.bytes(), tt0);
}

sim::Task<void> Comm::alltoallv(View sendbuf, const std::vector<std::uint64_t>& send_counts, View recvbuf, const std::vector<std::uint64_t>& recv_counts) {
  const double tt0 = wtime();
  co_await alltoallv_impl(sendbuf, send_counts, recvbuf, recv_counts);
  trace(prof::EventKind::kCollective, "Alltoallv", kAnySource, sendbuf.bytes(), tt0);
}

sim::Task<void> Comm::allgather(View sendpart, View recvbuf, std::uint64_t per_rank) {
  const double tt0 = wtime();
  co_await allgather_impl(sendpart, recvbuf, per_rank);
  trace(prof::EventKind::kCollective, "Allgather", kAnySource, sendpart.bytes(), tt0);
}

sim::Task<void> Comm::gather(View sendpart, View recvbuf, std::uint64_t per_rank, Rank root) {
  const double tt0 = wtime();
  co_await gather_impl(sendpart, recvbuf, per_rank, root);
  trace(prof::EventKind::kCollective, "Gather", kAnySource, sendpart.bytes(), tt0);
}

sim::Task<void> Comm::scatter(View sendbuf, View recvpart, std::uint64_t per_rank, Rank root) {
  const double tt0 = wtime();
  co_await scatter_impl(sendbuf, recvpart, per_rank, root);
  trace(prof::EventKind::kCollective, "Scatter", kAnySource, recvpart.bytes(), tt0);
}

sim::Task<void> Comm::reduce_scatter_block(View buf, std::size_t count_per_rank, Dtype dtype, ROp op, View out) {
  const double tt0 = wtime();
  co_await reduce_scatter_block_impl(buf, count_per_rank, dtype, op, out);
  trace(prof::EventKind::kCollective, "Reduce_scatter", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::scan(View buf, std::size_t count, Dtype dtype, ROp op) {
  const double tt0 = wtime();
  co_await scan_impl(buf, count, dtype, op);
  trace(prof::EventKind::kCollective, "Scan", kAnySource, buf.bytes(), tt0);
}

sim::Task<void> Comm::gatherv(View sendpart, View recvbuf, const std::vector<std::uint64_t>& counts, Rank root) {
  const double tt0 = wtime();
  co_await gatherv_impl(sendpart, recvbuf, counts, root);
  trace(prof::EventKind::kCollective, "Gatherv", kAnySource, sendpart.bytes(), tt0);
}

sim::Task<void> Comm::scatterv(View sendbuf, const std::vector<std::uint64_t>& counts, View recvpart, Rank root) {
  const double tt0 = wtime();
  co_await scatterv_impl(sendbuf, counts, recvpart, root);
  trace(prof::EventKind::kCollective, "Scatterv", kAnySource, recvpart.bytes(), tt0);
}

}  // namespace mns::mpi
