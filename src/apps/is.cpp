#include "apps/is.hpp"

#include <algorithm>
#include <numeric>

#include "apps/decomp.hpp"
#include "util/rng.hpp"

namespace mns::apps {

using mpi::Comm;
using mpi::Dtype;
using mpi::ROp;
using mpi::View;

namespace {

// Array ids for synthetic buffer identities.
enum : int { kKeys = 1, kHist = 2, kCounts = 3, kRecvKeys = 4, kCtl = 5 };

}  // namespace

sim::Task<AppResult> run_is(Comm& comm, IsParams p, Mode mode) {
  const int np = comm.size();
  const int me = comm.rank();
  const bool real = mode == Mode::kReal;

  const BlockRange mine = block_range(p.total_keys, np, me);
  const auto local_n = static_cast<std::size_t>(mine.size());
  const std::uint64_t key_space = 1ULL << p.max_key_log2;
  const std::uint64_t bucket_width =
      key_space / static_cast<std::uint64_t>(p.buckets);

  std::vector<std::int32_t> keys;
  std::vector<std::int32_t> recv_keys;
  std::vector<std::int64_t> hist(static_cast<std::size_t>(p.buckets));
  if (real) {
    keys.resize(local_n);
    util::Rng rng(0x15C0FFEEu + static_cast<unsigned>(me));
    for (auto& k : keys) {
      k = static_cast<std::int32_t>(rng.below(key_space));
    }
  }

  co_await comm.barrier();
  const double t0 = comm.wtime();

  // Buckets are assigned to ranks in contiguous blocks.
  std::uint64_t received = 0;
  for (int iter = 0; iter < p.iterations; ++iter) {
    // 1. Local bucket histogram.
    co_await comm.compute(static_cast<double>(local_n) * p.sec_per_key * 0.4);
    std::vector<std::uint64_t> send_counts(static_cast<std::size_t>(np), 0);
    if (real) {
      std::fill(hist.begin(), hist.end(), 0);
      for (const auto k : keys) {
        ++hist[static_cast<std::size_t>(static_cast<std::uint64_t>(k) /
                                        bucket_width)];
      }
      for (int r = 0; r < np; ++r) {
        const BlockRange b = block_range(p.buckets, np, r);
        std::int64_t n = 0;
        for (std::int64_t bkt = b.begin; bkt < b.end; ++bkt) {
          n += hist[static_cast<std::size_t>(bkt)];
        }
        send_counts[static_cast<std::size_t>(r)] =
            static_cast<std::uint64_t>(n) * sizeof(std::int32_t);
      }
    } else {
      // Balanced keys: each rank receives ~total/np.
      for (int r = 0; r < np; ++r) {
        send_counts[static_cast<std::size_t>(r)] =
            static_cast<std::uint64_t>(
                block_range(p.total_keys, np, r).size()) *
            sizeof(std::int32_t) / static_cast<std::uint64_t>(np);
      }
    }

    // 2. Global bucket histogram.
    View hview = buf_view(mode, hist, me, kHist,
                          static_cast<std::uint64_t>(p.buckets));
    co_await comm.allreduce(hview, static_cast<std::size_t>(p.buckets),
                            Dtype::kInt64, ROp::kSum);

    // 3. Exchange per-destination byte counts.
    std::vector<std::int64_t> counts_out(static_cast<std::size_t>(np));
    std::vector<std::int64_t> counts_in(static_cast<std::size_t>(np));
    for (int r = 0; r < np; ++r) {
      counts_out[static_cast<std::size_t>(r)] =
          static_cast<std::int64_t>(send_counts[static_cast<std::size_t>(r)]);
    }
    View cov = buf_view(mode, counts_out, me, kCounts,
                        static_cast<std::uint64_t>(np));
    View civ = buf_view(mode, counts_in, me, kCounts,
                        static_cast<std::uint64_t>(np), 0);
    // Distinct identity for the inbound array in skeleton mode.
    if (!real) civ = View::synth(synth_addr(me, kCounts, 4096), np * 8);
    co_await comm.alltoall(cov, civ, sizeof(std::int64_t));

    std::vector<std::uint64_t> recv_counts(static_cast<std::size_t>(np));
    if (real) {
      for (int r = 0; r < np; ++r) {
        recv_counts[static_cast<std::size_t>(r)] =
            static_cast<std::uint64_t>(counts_in[static_cast<std::size_t>(r)]);
      }
    } else {
      recv_counts = send_counts;  // balanced by construction
    }

    // 4. Redistribute keys so rank r holds bucket block r.
    const std::uint64_t in_bytes =
        std::accumulate(recv_counts.begin(), recv_counts.end(),
                        std::uint64_t{0});
    std::vector<std::int32_t> send_sorted;
    if (real) {
      // Pack keys by destination (counting sort by bucket block).
      send_sorted = keys;
      std::sort(send_sorted.begin(), send_sorted.end());
      recv_keys.assign(in_bytes / sizeof(std::int32_t), 0);
    }
    View sview = real ? View::in(send_sorted.data(),
                                 send_sorted.size() * sizeof(std::int32_t))
                      : View::synth(synth_addr(me, kKeys),
                                    local_n * sizeof(std::int32_t));
    View rview = real ? View::out(recv_keys.data(), in_bytes)
                      : View::synth(synth_addr(me, kRecvKeys), in_bytes);
    co_await comm.alltoallv(sview, send_counts, rview, recv_counts);
    received = in_bytes / sizeof(std::int32_t);

    // 5. Rank the received keys.
    co_await comm.compute(static_cast<double>(received) * p.sec_per_key * 0.6);
  }

  AppResult out;
  out.app_seconds = comm.wtime() - t0;

  // Scalars handed to MPI live at function scope for the whole run, as
  // CG's psum buffers do, not in a block scope of the frame.
  std::int32_t my_max = 0;
  std::int32_t left_max = 0;
  std::int64_t n = 0;
  if (real) {
    // Verify: received keys all fall inside my bucket block, sorted
    // neighbours agree at rank boundaries, and no key was lost.
    std::sort(recv_keys.begin(), recv_keys.end());
    const BlockRange myb = block_range(p.buckets, np, me);
    bool ok = true;
    for (const auto k : recv_keys) {
      const auto bkt = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(k) / bucket_width);
      ok = ok && bkt >= myb.begin && bkt < myb.end;
    }
    // Boundary order: my max <= right neighbour's min.
    std::int32_t my_min = recv_keys.empty()
                              ? std::numeric_limits<std::int32_t>::max()
                              : recv_keys.front();
    my_max = recv_keys.empty() ? std::numeric_limits<std::int32_t>::min()
                               : recv_keys.back();
    if (me + 1 < np) {
      co_await comm.send(View::in(&my_max, 4), me + 1, 99);
    }
    if (me > 0) {
      co_await comm.recv(View::out(&left_max, 4), me - 1, 99);
      ok = ok && left_max <= my_min;
    }
    // Count conservation.
    n = static_cast<std::int64_t>(received);
    co_await comm.allreduce(View::out(&n, 8), 1, Dtype::kInt64, ROp::kSum);
    ok = ok && n == p.total_keys;
    out.verified = ok;
    out.checksum = static_cast<double>(my_max);
  }
  co_return out;
}

}  // namespace mns::apps
