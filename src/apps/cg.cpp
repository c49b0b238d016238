#include "apps/cg.hpp"

#include <cmath>
#include <limits>

#include "apps/decomp.hpp"
#include "util/rng.hpp"

namespace mns::apps {

using mpi::Comm;
using mpi::Request;
using mpi::Tag;
using mpi::View;

namespace {

enum : int { kW = 1, kQ = 2, kDot = 3, kPseg = 4 };

/// Deterministic symmetric sparsity: off-diagonal entry (i,j), i != j,
/// exists iff hash(min,max) clears the density threshold; its value is
/// derived from the same hash, so every rank agrees on A without storing
/// it. Diagonal entries are large enough for diagonal dominance.
struct MatrixGen {
  std::int64_t na;
  std::uint64_t thresh;  // of 2^32

  explicit MatrixGen(std::int64_t na_, int nonzer)
      : na(na_),
        thresh(static_cast<std::uint64_t>(
            (static_cast<double>(nonzer) / static_cast<double>(na_)) *
            4294967296.0)) {}

  static std::uint64_t hash(std::int64_t a, std::int64_t b) {
    util::SplitMix64 sm((static_cast<std::uint64_t>(a) << 32) ^
                        static_cast<std::uint64_t>(b) ^ 0xC6A4A793u);
    return sm.next();
  }

  bool has(std::int64_t i, std::int64_t j) const {
    if (i == j) return true;
    const std::int64_t a = i < j ? i : j;
    const std::int64_t b = i < j ? j : i;
    return (hash(a, b) & 0xFFFFFFFFu) < thresh;
  }

  double value(std::int64_t i, std::int64_t j, int nonzer) const {
    if (i == j) {
      // Dominant diagonal: larger than the w.h.p. row sum of |values|<=1.
      return 4.0 * nonzer + 10.0;
    }
    const std::int64_t a = i < j ? i : j;
    const std::int64_t b = i < j ? j : i;
    return static_cast<double>((hash(a, b) >> 32) & 0xFFFF) / 65536.0 - 0.5;
  }
};

struct Csr {
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col;  // local column index
  std::vector<double> val;
};

}  // namespace

sim::Task<AppResult> run_cg(Comm& comm, CgParams p, Mode mode) {
  const int np = comm.size();
  const int me = comm.rank();
  const bool real = mode == Mode::kReal;
  if (!is_pow2(np)) {
    throw std::invalid_argument("CG requires a power-of-two rank count");
  }

  // Grid: npcols >= nprows, both powers of two (NPB convention).
  const int l = ilog2(np);
  const int npcols = 1 << ((l + 1) / 2);
  const int nprows = np / npcols;
  const int mycol = me % npcols;
  const int myrow = me / npcols;

  const BlockRange rows = block_range(p.na, nprows, myrow);  // R_r
  const BlockRange cols = block_range(p.na, npcols, mycol);  // C_c
  const auto seg_n = static_cast<std::size_t>(cols.size());
  // The slice of C_c this rank uniquely owns: R_r intersect C_c.
  const std::int64_t own_begin =
      std::max(rows.begin, cols.begin);
  const std::int64_t own_end = std::min(rows.end, cols.end);

  // Build the local sparse block A[R_r x C_c] once (real mode only).
  Csr a;
  std::int64_t nnz_local = 0;
  if (real) {
    MatrixGen gen(p.na, p.nonzer);
    a.row_ptr.push_back(0);
    for (std::int64_t i = rows.begin; i < rows.end; ++i) {
      for (std::int64_t j = cols.begin; j < cols.end; ++j) {
        if (gen.has(i, j)) {
          a.col.push_back(static_cast<std::int32_t>(j - cols.begin));
          a.val.push_back(gen.value(i, j, p.nonzer));
        }
      }
      a.row_ptr.push_back(static_cast<std::int64_t>(a.col.size()));
    }
    nnz_local = static_cast<std::int64_t>(a.col.size());
  } else {
    nnz_local = (2 * p.nonzer + 1) * p.na / np;
  }

  // Column-distributed vectors (segment C_c, replicated down the column).
  std::vector<double> x, r, pv, q, z, w;
  if (real) {
    x.assign(seg_n, 1.0);
    r.resize(seg_n);
    pv.resize(seg_n);
    q.resize(seg_n);
    z.resize(seg_n);
    w.resize(static_cast<std::size_t>(rows.size()));
  }

  // Cache-fit factor: when the per-rank vector segment no longer fits in
  // L2, the sparse matvec streams from DRAM and runs slower per nonzero.
  // This is what makes the paper's CG speed-ups superlinear (Table 2).
  const double cache_f = seg_n * 8 > 200 * 1024 ? 1.35 : 1.0;
  const double sec_nnz = p.sec_per_nnz * cache_f;
  const double sec_axpy = p.sec_per_axpy * cache_f;

  co_await comm.barrier();
  const double t0 = comm.wtime();

  // Butterfly p2p double-sum over all ranks (NPB CG avoids collectives).
  // The exchange goes through two doubles that live as long as the run,
  // like the Fortran kernel's fixed-address locals: psum's own frame is
  // re-allocated per call, and a frame-local buffer would show MPI (and
  // the NIC-MMU model behind it) a new buffer whenever the frame pool
  // hands back a different block.
  double psum_out = 0;
  double psum_in = 0;
  auto psum = [&](double v) -> sim::Task<double> {
    for (int mask = 1; mask < np; mask <<= 1) {
      const int partner = me ^ mask;
      psum_out = v;
      co_await comm.sendrecv(View::in(&psum_out, 8), partner, 7001,
                             View::out(&psum_in, 8), partner, 7001);
      v += psum_in;
    }
    co_return v;
  };

  // One matvec: q_seg = (A * p_seg_replicated) redistributed to C_c.
  auto matvec = [&]() -> sim::Task<void> {
    // Local block multiply.
    co_await comm.compute(static_cast<double>(nnz_local) * sec_nnz);
    if (real) {
      for (std::int64_t i = 0; i < rows.size(); ++i) {
        double s = 0;
        for (std::int64_t k = a.row_ptr[static_cast<std::size_t>(i)];
             k < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++k) {
          s += a.val[static_cast<std::size_t>(k)] *
               pv[static_cast<std::size_t>(
                   a.col[static_cast<std::size_t>(k)])];
        }
        w[static_cast<std::size_t>(i)] = s;
      }
    }

    // Sum w across the processor row (recursive doubling over the ranks
    // sharing these matrix rows): log2(npcols) full-vector exchanges —
    // these are CG's large messages (Table 1's 16K-1M class).
    const auto w_n = static_cast<std::uint64_t>(rows.size());
    std::vector<double> tmp;
    if (real) tmp.resize(static_cast<std::size_t>(w_n));
    for (int mask = 1; mask < npcols; mask <<= 1) {
      const int partner = myrow * npcols + (mycol ^ mask);
      View sv = real ? View::in(w.data(), w_n * 8)
                     : View::synth(synth_addr(me, kW), w_n * 8);
      View rv = real ? View::out(tmp.data(), w_n * 8)
                     : View::synth(synth_addr(me, kW, 1 << 20), w_n * 8);
      co_await comm.sendrecv(sv, partner, 7002, rv, partner, 7002);
      if (real) {
        for (std::uint64_t i = 0; i < w_n; ++i) {
          w[static_cast<std::size_t>(i)] += tmp[static_cast<std::size_t>(i)];
        }
      }
      co_await comm.compute(static_cast<double>(w_n) * sec_axpy);
    }

    // Gather within the processor column: every rank contributes its owned
    // chunk; after nprows-1 ring steps each rank has q over all of C_c.
    // (chunk == R_r ^ C_c by construction.)
    if (real) {
      for (std::int64_t i = own_begin; i < own_end; ++i) {
        q[static_cast<std::size_t>(i - cols.begin)] =
            w[static_cast<std::size_t>(i - rows.begin)];
      }
    }
    for (int step = 1; step < nprows; ++step) {
      const int up = ((myrow + step) % nprows) * npcols + mycol;
      const int dn = ((myrow - step + nprows) % nprows) * npcols + mycol;
      // I receive the chunk owned by rank `dn` (its R ^ C_c).
      const BlockRange rr = block_range(p.na, nprows, (myrow - step + nprows) % nprows);
      const std::int64_t rb = std::max(rr.begin, cols.begin);
      const std::int64_t re = std::min(rr.end, cols.end);
      const auto recv_n = static_cast<std::uint64_t>(std::max<std::int64_t>(0, re - rb));
      const auto send_n = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, own_end - own_begin));
      View sv = real ? View::in(q.data() + (own_begin - cols.begin), send_n * 8)
                     : View::synth(synth_addr(me, kQ), send_n * 8);
      View rv = real ? View::out(q.data() + (rb - cols.begin), recv_n * 8)
                     : View::synth(synth_addr(me, kQ, 2 << 20), recv_n * 8);
      co_await comm.sendrecv(sv, up, 7003, rv, dn, 7003);
    }
  };

  // Local partial dot over the uniquely-owned slice.
  auto local_dot = [&](const std::vector<double>& u,
                       const std::vector<double>& v2) {
    if (!real) return 0.0;
    double s = 0;
    for (std::int64_t i = own_begin; i < own_end; ++i) {
      s += u[static_cast<std::size_t>(i - cols.begin)] *
           v2[static_cast<std::size_t>(i - cols.begin)];
    }
    return s;
  };

  double zeta = 0.0;
  bool residual_reduced = true;

  for (int outer = 0; outer < p.outer_iters; ++outer) {
    // r = x; z = 0; p = r; rho = r.r
    if (real) {
      r = x;
      std::fill(z.begin(), z.end(), 0.0);
      pv = r;
    }
    co_await comm.compute(static_cast<double>(seg_n) * sec_axpy * 3);
    double rho = co_await psum(local_dot(r, r));
    const double rho_start = rho;
    double rho_last = rho;

    for (int it = 0; it < p.inner_iters; ++it) {
      co_await matvec();  // q = A p
      const double pq = co_await psum(local_dot(pv, q));
      const double alpha = real && pq != 0.0 ? rho / pq : 0.0;
      if (real) {
        for (std::size_t i = 0; i < seg_n; ++i) {
          z[i] += alpha * pv[i];
          r[i] -= alpha * q[i];
        }
      }
      co_await comm.compute(static_cast<double>(seg_n) * sec_axpy * 2);
      const double rho_new = co_await psum(local_dot(r, r));
      if (real) {
        rho_last = rho_new;
        const double beta = rho != 0.0 ? rho_new / rho : 0.0;
        for (std::size_t i = 0; i < seg_n; ++i) {
          pv[i] = r[i] + beta * pv[i];
        }
        rho = rho_new;
      }
      co_await comm.compute(static_cast<double>(seg_n) * sec_axpy);
    }

    if (real && !(rho_last < rho_start)) residual_reduced = false;

    // zeta = shift + 1 / (x.z); x = z / ||z|| (NPB shape).
    const double xz = co_await psum(local_dot(x, z));
    const double znorm2 = co_await psum(local_dot(z, z));
    if (real && znorm2 > 0) {
      const double inv = 1.0 / std::sqrt(znorm2);
      for (std::size_t i = 0; i < seg_n; ++i) x[i] = z[i] * inv;
      zeta = 20.0 + (xz != 0.0 ? 1.0 / xz : 0.0);
    }
    co_await comm.compute(static_cast<double>(seg_n) * sec_axpy * 2);
  }

  AppResult out;
  out.app_seconds = comm.wtime() - t0;
  out.checksum = zeta;
  if (real) {
    out.verified = residual_reduced && std::isfinite(zeta);
  }
  co_return out;
}

}  // namespace mns::apps
