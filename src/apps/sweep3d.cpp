#include "apps/sweep3d.hpp"

#include <cmath>

#include "apps/decomp.hpp"
#include "util/rng.hpp"

namespace mns::apps {

using mpi::Comm;
using mpi::Dtype;
using mpi::ROp;
using mpi::View;

namespace {
enum : int { kInX = 1, kInY = 2, kNorm = 3 };
}  // namespace

sim::Task<AppResult> run_sweep3d(Comm& comm, SweepParams p, Mode mode) {
  const int np = comm.size();
  const int me = comm.rank();
  const bool real = mode == Mode::kReal;
  // Sweep3D decomposes with more ranks along y than x (the transpose of
  // our default near-square factorization).
  const Grid2D g0 = make_grid2d(np);
  const Grid2D g{g0.py, g0.px};

  const BlockRange xb = block_range(p.n, g.px, g.x(me));
  const BlockRange yb = block_range(p.n, g.py, g.y(me));
  const int nxl = static_cast<int>(xb.size());
  const int nyl = static_cast<int>(yb.size());
  const int nz = p.n;

  auto idx = [&](int i, int j, int k) {
    return (static_cast<std::size_t>(k) * nyl + j) * nxl + i;
  };
  std::vector<double> phi, phi_old, src;
  if (real) {
    phi.assign(static_cast<std::size_t>(nxl) * nyl * nz, 0.0);
    src.assign(phi.size(), 1.0);  // uniform external source
  }
  const double sigma = 1.0;  // total cross-section
  const double mu = 0.35, eta = 0.35, xi = 0.30;  // direction cosines

  // Inflow strips for the active k-block.
  std::vector<double> in_x, in_y;   // [k_in_block][j] and [k_in_block][i]
  std::vector<double> out_x, out_y;

  co_await comm.barrier();
  const double t0 = comm.wtime();

  double delta0 = 0, delta1 = 0;
  for (int iter = 0; iter < p.iterations; ++iter) {
    if (real) {
      phi_old = phi;
      std::fill(phi.begin(), phi.end(), 0.0);
    }
    for (int octant = 0; octant < 8; ++octant) {
      const int sx = (octant & 1) ? -1 : 1;   // x sweep direction
      const int sy = (octant & 2) ? -1 : 1;   // y sweep direction
      const int sz = (octant & 4) ? -1 : 1;   // z sweep direction
      const int from_x = sx > 0 ? g.west(me) : g.east(me);
      const int to_x = sx > 0 ? g.east(me) : g.west(me);
      const int from_y = sy > 0 ? g.north(me) : g.south(me);
      const int to_y = sy > 0 ? g.south(me) : g.north(me);

      const int kblocks = (nz + p.k_block - 1) / p.k_block;
      for (int ab = 0; ab < p.angle_blocks; ++ab)
      for (int kb = 0; kb < kblocks; ++kb) {
        const int k0 = kb * p.k_block;
        const int kn = std::min(p.k_block, nz - k0);
        // Inflow strips carry `angles_per_block` angular fluxes per cell.
        const std::uint64_t x_bytes = static_cast<std::uint64_t>(nyl) * kn *
                                      p.angles_per_block * 8;
        const std::uint64_t y_bytes = static_cast<std::uint64_t>(nxl) * kn *
                                      p.angles_per_block * 8;

        if (from_x >= 0) {
          if (real) in_x.assign(x_bytes / 8, 0.0);
          View v = real ? View::out(in_x.data(), x_bytes)
                        : View::synth(synth_addr(me, kInX), x_bytes);
          co_await comm.recv(v, from_x, 930 + octant);
        } else if (real) {
          in_x.assign(x_bytes / 8, 0.0);  // vacuum boundary
        }
        if (from_y >= 0) {
          if (real) in_y.assign(y_bytes / 8, 0.0);
          View v = real ? View::out(in_y.data(), y_bytes)
                        : View::synth(synth_addr(me, kInY), y_bytes);
          co_await comm.recv(v, from_y, 940 + octant);
        } else if (real) {
          in_y.assign(y_bytes / 8, 0.0);
        }

        co_await comm.compute(static_cast<double>(nxl) * nyl * kn *
                              p.sec_per_cell);
        if (real) {
          out_x.assign(x_bytes / 8, 0.0);
          out_y.assign(y_bytes / 8, 0.0);
          // Upwind diamond-difference-lite sweep of the block.
          std::vector<double> psi_z(static_cast<std::size_t>(nxl) * nyl,
                                    0.0);  // z inflow within the block
          for (int kk = 0; kk < kn; ++kk) {
            const int k = sz > 0 ? k0 + kk : k0 + kn - 1 - kk;
            for (int jj = 0; jj < nyl; ++jj) {
              const int j = sy > 0 ? jj : nyl - 1 - jj;
              for (int ii = 0; ii < nxl; ++ii) {
                const int i = sx > 0 ? ii : nxl - 1 - ii;
                const double fx =
                    ii == 0 ? in_x[static_cast<std::size_t>(kk) * nyl + jj]
                            : out_x[static_cast<std::size_t>(kk) * nyl + jj];
                const double fy =
                    jj == 0 ? in_y[static_cast<std::size_t>(kk) * nxl + ii]
                            : out_y[static_cast<std::size_t>(kk) * nxl + ii];
                const double fz =
                    psi_z[static_cast<std::size_t>(j) * nxl + i];
                // Isotropic in-scatter from the previous iteration's
                // scalar flux: the genuine source-iteration coupling.
                const double scat =
                    phi_old.empty() ? 0.0 : 0.3 * phi_old[idx(i, j, k)];
                const double psi =
                    (src[idx(i, j, k)] + scat +
                     2.0 * (mu * fx + eta * fy + xi * fz)) /
                    (sigma + 2.0 * (mu + eta + xi));
                phi[idx(i, j, k)] +=
                    psi / (8.0 * static_cast<double>(p.angle_blocks));
                // Outflows (diamond difference closure).
                out_x[static_cast<std::size_t>(kk) * nyl + jj] =
                    2.0 * psi - fx;
                out_y[static_cast<std::size_t>(kk) * nxl + ii] =
                    2.0 * psi - fy;
                psi_z[static_cast<std::size_t>(j) * nxl + i] =
                    2.0 * psi - fz;
              }
            }
          }
        }

        if (to_x >= 0) {
          View v = real ? View::in(out_x.data(), x_bytes)
                        : View::synth(synth_addr(me, kInX, 1 << 16), x_bytes);
          co_await comm.send(v, to_x, 930 + octant);
        }
        if (to_y >= 0) {
          View v = real ? View::in(out_y.data(), y_bytes)
                        : View::synth(synth_addr(me, kInY, 1 << 16), y_bytes);
          co_await comm.send(v, to_y, 940 + octant);
        }
      }
    }

    // Source-iteration convergence measure: one small allreduce per
    // iteration plus a couple of extras, the paper's 39 collective calls.
    double d = 0;
    if (real) {
      for (std::size_t i = 0; i < phi.size(); ++i) {
        const double e = phi[i] - phi_old[i];
        d += e * e;
      }
    }
    View dv = real ? View::out(&d, 8) : View::synth(synth_addr(me, kNorm), 8);
    co_await comm.allreduce(dv, 1, Dtype::kDouble, ROp::kSum);
    co_await comm.allreduce(dv, 1, Dtype::kDouble, ROp::kMax);
    co_await comm.barrier();
    if (iter == 0) delta0 = std::sqrt(d);
    if (iter == p.iterations - 1) delta1 = std::sqrt(d);
  }

  AppResult out;
  out.app_seconds = comm.wtime() - t0;
  // Scalars handed to MPI live at function scope for the whole run, as
  // CG's psum buffers do, not in a block scope of the frame.
  double s = 0;
  if (real) {
    for (const double v : phi) s += v;
    co_await comm.allreduce(View::out(&s, 8), 1, Dtype::kDouble, ROp::kSum);
    out.checksum = s;
    out.verified = std::isfinite(s) && delta1 < delta0 * 0.9 && s > 0;
  }
  co_return out;
}

}  // namespace mns::apps
