#include "apps/mg.hpp"

#include <cmath>

#include "apps/decomp.hpp"
#include "util/rng.hpp"

namespace mns::apps {

using mpi::Comm;
using mpi::Dtype;
using mpi::ROp;
using mpi::View;

namespace {

enum : int { kFaceBase = 10, kNorm = 40 };

/// One grid level's local block, with one ghost layer all around.
struct LevelGrid {
  int nx = 0, ny = 0, nz = 0;  // interior dims
  std::vector<double> u, r, f;

  std::size_t idx(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * (ny + 2) + j) * (nx + 2) + i;
  }
  std::size_t volume() const {
    return static_cast<std::size_t>(nx + 2) * (ny + 2) * (nz + 2);
  }
};

}  // namespace

sim::Task<AppResult> run_mg(Comm& comm, MgParams p, Mode mode) {
  const int np = comm.size();
  const int me = comm.rank();
  const bool real = mode == Mode::kReal;
  const Grid3D g = make_grid3d(np);

  if (p.n % (g.px * 2) != 0 || p.n % (g.py * 2) != 0 ||
      p.n % (g.pz * 2) != 0) {
    throw std::invalid_argument("MG grid must divide evenly over ranks");
  }

  // Build the level hierarchy: coarsen while every local dim stays >= 2.
  std::vector<LevelGrid> levels;
  for (int n = p.n;; n /= 2) {
    LevelGrid lg;
    lg.nx = n / g.px;
    lg.ny = n / g.py;
    lg.nz = n / g.pz;
    if (lg.nx < 2 || lg.ny < 2 || lg.nz < 2) break;
    if (real) {
      lg.u.assign(lg.volume(), 0.0);
      lg.r.assign(lg.volume(), 0.0);
      lg.f.assign(lg.volume(), 0.0);
    }
    levels.push_back(std::move(lg));
    if (n == 2) break;
  }
  const int nlevels = static_cast<int>(levels.size());

  // Random +-1 source at the fine level (NPB flavour). The periodic
  // Laplacian is singular with a constant nullspace, so the source must
  // be projected to zero mean or the V-cycle amplifies the inconsistent
  // component without bound.
  // The mean goes through a scalar at function scope that lives for the
  // whole run, as CG's psum buffers do, not in a block scope of the frame.
  double gsum = 0;
  if (real) {
    auto& fine = levels[0];
    util::Rng rng(0x36900 + static_cast<unsigned>(me));
    double local_sum = 0;
    for (int k = 1; k <= fine.nz; ++k) {
      for (int j = 1; j <= fine.ny; ++j) {
        for (int i = 1; i <= fine.nx; ++i) {
          const double v = rng.chance(0.5) ? 1.0 : -1.0;
          fine.f[fine.idx(i, j, k)] = v;
          local_sum += v;
        }
      }
    }
    gsum = local_sum;
    co_await comm.allreduce(View::out(&gsum, 8), 1, Dtype::kDouble,
                            ROp::kSum);
    const double mean = gsum / (static_cast<double>(p.n) * p.n * p.n);
    for (int k = 1; k <= fine.nz; ++k) {
      for (int j = 1; j <= fine.ny; ++j) {
        for (int i = 1; i <= fine.nx; ++i) {
          fine.f[fine.idx(i, j, k)] -= mean;
        }
      }
    }
  }

  // Ghost-face exchange for array `which` (0=u, 1=r) at level `lv`.
  // Periodic neighbours in each axis; faces packed contiguously.
  auto comm3 = [&](int lv, int which) -> sim::Task<void> {
    auto& lg = levels[static_cast<std::size_t>(lv)];
    const int dims[3] = {lg.nx, lg.ny, lg.nz};
    std::vector<double> sendbuf, recvbuf;
    for (int axis = 0; axis < 3; ++axis) {
      const int da = dims[(axis + 1) % 3];
      const int db = dims[(axis + 2) % 3];
      const std::uint64_t face_bytes =
          static_cast<std::uint64_t>(da) * db * 8;
      for (int dir : {-1, +1}) {
        const int to = g.neighbor(me, axis, dir);
        const int from = g.neighbor(me, axis, -dir);
        auto& arr = which == 0 ? lg.u : lg.r;
        if (to == me) {
          // Single rank along this axis: periodic wrap is a local copy.
          if (real) {
            const int n_axis = dims[axis];
            const int send_plane = dir > 0 ? n_axis : 1;
            const int recv_plane = dir > 0 ? 0 : n_axis + 1;
            for (int b = 1; b <= db; ++b) {
              for (int a2 = 1; a2 <= da; ++a2) {
                int cs[3], cr[3];
                cs[axis] = send_plane;
                cr[axis] = recv_plane;
                cs[(axis + 1) % 3] = cr[(axis + 1) % 3] = a2;
                cs[(axis + 2) % 3] = cr[(axis + 2) % 3] = b;
                arr[lg.idx(cr[0], cr[1], cr[2])] =
                    arr[lg.idx(cs[0], cs[1], cs[2])];
              }
            }
          }
          continue;
        }
        if (real) {
          sendbuf.resize(static_cast<std::size_t>(da) * db);
          recvbuf.resize(static_cast<std::size_t>(da) * db);
          // Pack the boundary plane facing `dir` along `axis`.
          const int n_axis = dims[axis];
          const int send_plane = dir > 0 ? n_axis : 1;
          const int recv_plane = dir > 0 ? 0 : n_axis + 1;
          std::size_t w = 0;
          for (int b = 1; b <= db; ++b) {
            for (int a2 = 1; a2 <= da; ++a2) {
              int c[3];
              c[axis] = send_plane;
              c[(axis + 1) % 3] = a2;
              c[(axis + 2) % 3] = b;
              sendbuf[w++] = arr[lg.idx(c[0], c[1], c[2])];
            }
          }
          co_await comm.sendrecv(
              View::in(sendbuf.data(), face_bytes), to, 800 + axis * 2,
              View::out(recvbuf.data(), face_bytes), from, 800 + axis * 2);
          w = 0;
          for (int b = 1; b <= db; ++b) {
            for (int a2 = 1; a2 <= da; ++a2) {
              int c[3];
              c[axis] = recv_plane;
              c[(axis + 1) % 3] = a2;
              c[(axis + 2) % 3] = b;
              arr[lg.idx(c[0], c[1], c[2])] = recvbuf[w++];
            }
          }
        } else {
          const std::uint64_t id = kFaceBase + lv * 8 + axis * 2 +
                                   (dir > 0 ? 1 : 0);
          co_await comm.sendrecv(
              View::synth(synth_addr(me, static_cast<int>(id)), face_bytes),
              to, 800 + axis * 2,
              View::synth(synth_addr(me, static_cast<int>(id), 1 << 20),
                          face_bytes),
              from, 800 + axis * 2);
        }
      }
    }
  };

  // 7-point residual: r = f - A u (A = Laplacian, h-scaled away).
  auto resid = [&](int lv) -> sim::Task<void> {
    auto& lg = levels[static_cast<std::size_t>(lv)];
    co_await comm3(lv, 0);
    co_await comm.compute(static_cast<double>(lg.nx) * lg.ny * lg.nz *
                          p.sec_per_point);
    if (!real) co_return;
    for (int k = 1; k <= lg.nz; ++k) {
      for (int j = 1; j <= lg.ny; ++j) {
        for (int i = 1; i <= lg.nx; ++i) {
          const double au = 6.0 * lg.u[lg.idx(i, j, k)] -
                            lg.u[lg.idx(i - 1, j, k)] -
                            lg.u[lg.idx(i + 1, j, k)] -
                            lg.u[lg.idx(i, j - 1, k)] -
                            lg.u[lg.idx(i, j + 1, k)] -
                            lg.u[lg.idx(i, j, k - 1)] -
                            lg.u[lg.idx(i, j, k + 1)];
          lg.r[lg.idx(i, j, k)] = lg.f[lg.idx(i, j, k)] - au;
        }
      }
    }
  };

  // Weighted-Jacobi smoothing: u += omega * r / diag.
  auto smooth = [&](int lv) -> sim::Task<void> {
    auto& lg = levels[static_cast<std::size_t>(lv)];
    co_await comm.compute(static_cast<double>(lg.nx) * lg.ny * lg.nz *
                          p.sec_per_point * 0.6);
    if (!real) co_return;
    for (int k = 1; k <= lg.nz; ++k) {
      for (int j = 1; j <= lg.ny; ++j) {
        for (int i = 1; i <= lg.nx; ++i) {
          lg.u[lg.idx(i, j, k)] += (0.8 / 6.0) * lg.r[lg.idx(i, j, k)];
        }
      }
    }
  };

  // Restrict residual lv -> lv+1 (injection of 2x2x2 average).
  auto restrict_to = [&](int lv) -> sim::Task<void> {
    auto& fineg = levels[static_cast<std::size_t>(lv)];
    auto& coarse = levels[static_cast<std::size_t>(lv + 1)];
    co_await comm3(lv, 1);
    co_await comm.compute(static_cast<double>(coarse.nx) * coarse.ny *
                          coarse.nz * p.sec_per_point);
    if (!real) co_return;
    for (int k = 1; k <= coarse.nz; ++k) {
      for (int j = 1; j <= coarse.ny; ++j) {
        for (int i = 1; i <= coarse.nx; ++i) {
          double s = 0;
          for (int dk = 0; dk < 2; ++dk) {
            for (int dj = 0; dj < 2; ++dj) {
              for (int di = 0; di < 2; ++di) {
                s += fineg.r[fineg.idx(2 * i - 1 + di, 2 * j - 1 + dj,
                                       2 * k - 1 + dk)];
              }
            }
          }
          coarse.f[coarse.idx(i, j, k)] = 0.5 * s;
          coarse.u[coarse.idx(i, j, k)] = 0.0;
        }
      }
    }
  };

  // Prolongate u from lv+1 and add as correction to u at lv (injection).
  auto interp_from = [&](int lv) -> sim::Task<void> {
    auto& fineg = levels[static_cast<std::size_t>(lv)];
    auto& coarse = levels[static_cast<std::size_t>(lv + 1)];
    co_await comm3(lv + 1, 0);
    co_await comm.compute(static_cast<double>(fineg.nx) * fineg.ny *
                          fineg.nz * p.sec_per_point * 0.5);
    if (!real) co_return;
    for (int k = 1; k <= fineg.nz; ++k) {
      for (int j = 1; j <= fineg.ny; ++j) {
        for (int i = 1; i <= fineg.nx; ++i) {
          fineg.u[fineg.idx(i, j, k)] +=
              coarse.u[coarse.idx((i + 1) / 2, (j + 1) / 2, (k + 1) / 2)];
        }
      }
    }
  };

  // Global L2 residual norm at the fine level.
  auto resid_norm = [&]() -> sim::Task<double> {
    auto& lg = levels[0];
    double s = 0;
    if (real) {
      for (int k = 1; k <= lg.nz; ++k) {
        for (int j = 1; j <= lg.ny; ++j) {
          for (int i = 1; i <= lg.nx; ++i) {
            const double v = lg.r[lg.idx(i, j, k)];
            s += v * v;
          }
        }
      }
    }
    View nv = real ? View::out(&s, 8) : View::synth(synth_addr(me, kNorm), 8);
    co_await comm.allreduce(nv, 1, Dtype::kDouble, ROp::kSum);
    co_return std::sqrt(s);
  };

  co_await comm.barrier();
  const double t0 = comm.wtime();

  co_await resid(0);
  const double norm0 = co_await resid_norm();

  double norm = norm0;
  for (int iter = 0; iter < p.iterations; ++iter) {
    // Down: pre-smooth, then restrict residuals to the coarsest level.
    // The pre-smoothing is what keeps the piecewise-constant
    // interpolation's rough components under control.
    for (int lv = 0; lv + 1 < nlevels; ++lv) {
      co_await resid(lv);
      co_await smooth(lv);
      co_await resid(lv);
      co_await restrict_to(lv);
    }
    // Coarsest solve: a few smoothing passes.
    for (int s = 0; s < 4; ++s) {
      co_await resid(nlevels - 1);
      co_await smooth(nlevels - 1);
    }
    // NPB MG tracks norms through the cycle (its ~100 collective calls):
    // after the down phase, after the coarsest solve, and twice on the
    // way up, plus the headline residual norm below.
    (void)co_await resid_norm();
    // Up: prolongate corrections and post-smooth twice.
    for (int lv = nlevels - 2; lv >= 0; --lv) {
      co_await interp_from(lv);
      for (int s = 0; s < 2; ++s) {
        co_await resid(lv);
        co_await smooth(lv);
      }
    }
    (void)co_await resid_norm();
    (void)co_await resid_norm();
    co_await resid(0);
    norm = co_await resid_norm();
  }

  AppResult out;
  out.app_seconds = comm.wtime() - t0;
  out.checksum = norm;
  if (real) {
    out.verified = std::isfinite(norm) && norm < norm0 * 0.2;
  }
  co_return out;
}

}  // namespace mns::apps
