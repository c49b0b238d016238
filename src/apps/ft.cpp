#include "apps/ft.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "apps/decomp.hpp"
#include "util/rng.hpp"

namespace mns::apps {

using mpi::Comm;
using mpi::Dtype;
using mpi::ROp;
using mpi::View;
using Cplx = std::complex<double>;

namespace {

enum : int { kSend = 1, kRecv = 2, kSum = 3 };

/// In-place iterative radix-2 FFT over a stride-1 line of length n
/// (power of two). sign = -1 forward, +1 inverse (unscaled).
void fft_line(Cplx* a, int n, int sign) {
  // Bit-reversal permutation.
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const double ang =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Cplx wl(std::cos(ang), std::sin(ang));
    for (int i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (int k = 0; k < len / 2; ++k) {
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
}

}  // namespace

sim::Task<AppResult> run_ft(Comm& comm, FtParams p, Mode mode) {
  const int np = comm.size();
  const int me = comm.rank();
  const bool real = mode == Mode::kReal;
  if (!is_pow2(p.nx) || !is_pow2(p.ny) || !is_pow2(p.nz) || !is_pow2(np)) {
    throw std::invalid_argument("FT needs power-of-two dims and ranks");
  }
  if (p.nz % np != 0 || p.nx % np != 0) {
    throw std::invalid_argument("FT slabs must divide evenly");
  }

  const int nzl = p.nz / np;  // local z planes (slab layout)
  const int nxl = p.nx / np;  // local x columns (pencil layout)
  const std::size_t slab_n =
      static_cast<std::size_t>(p.nx) * p.ny * nzl;
  const std::size_t pencil_n =
      static_cast<std::size_t>(nxl) * p.ny * p.nz;
  const std::uint64_t block_bytes =
      static_cast<std::uint64_t>(nxl) * p.ny * nzl * sizeof(Cplx);

  std::vector<Cplx> slab, pencil, init, sendbuf, recvbuf;
  if (real) {
    slab.resize(slab_n);
    pencil.resize(pencil_n);
    sendbuf.resize(slab_n);
    recvbuf.resize(slab_n);
    util::Rng rng(0xF7 + static_cast<unsigned>(me));
    for (auto& c : slab) {
      c = Cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    }
    init = slab;
  }

  auto slab_idx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * p.ny + y) * p.nx + x;
  };
  auto pencil_idx = [&](int xl, int y, int z) {
    return (static_cast<std::size_t>(xl) * p.ny + y) * p.nz + z;
  };

  // Local x and y FFT passes over the slab.
  auto fft_xy = [&](int sign) -> sim::Task<void> {
    co_await comm.compute(static_cast<double>(slab_n) * 2.0 *
                          p.sec_per_point_pass);
    if (!real) co_return;
    std::vector<Cplx> line(static_cast<std::size_t>(
        p.nx > p.ny ? p.nx : p.ny));
    for (int z = 0; z < nzl; ++z) {
      for (int y = 0; y < p.ny; ++y) {
        fft_line(&slab[slab_idx(0, y, z)], p.nx, sign);  // x stride 1
      }
      for (int x = 0; x < p.nx; ++x) {  // y strided: gather/scatter
        for (int y = 0; y < p.ny; ++y) line[y] = slab[slab_idx(x, y, z)];
        fft_line(line.data(), p.ny, sign);
        for (int y = 0; y < p.ny; ++y) slab[slab_idx(x, y, z)] = line[y];
      }
    }
  };

  // Transpose slab -> pencil via alltoall (and back).
  auto transpose = [&](bool to_pencil) -> sim::Task<void> {
    if (real) {
      if (to_pencil) {
        std::size_t w = 0;
        for (int r = 0; r < np; ++r) {
          for (int z = 0; z < nzl; ++z) {
            for (int y = 0; y < p.ny; ++y) {
              for (int xl = 0; xl < nxl; ++xl) {
                sendbuf[w++] = slab[slab_idx(r * nxl + xl, y, z)];
              }
            }
          }
        }
      } else {
        std::size_t w = 0;
        for (int r = 0; r < np; ++r) {
          for (int zl = 0; zl < nzl; ++zl) {
            for (int y = 0; y < p.ny; ++y) {
              for (int xl = 0; xl < nxl; ++xl) {
                sendbuf[w++] = pencil[pencil_idx(xl, y, r * nzl + zl)];
              }
            }
          }
        }
      }
    }
    View sv = real ? View::in(sendbuf.data(), slab_n * sizeof(Cplx))
                   : View::synth(synth_addr(me, kSend),
                                 static_cast<std::uint64_t>(np) * block_bytes);
    View rv = real ? View::out(recvbuf.data(), slab_n * sizeof(Cplx))
                   : View::synth(synth_addr(me, kRecv),
                                 static_cast<std::uint64_t>(np) * block_bytes);
    co_await comm.alltoall(sv, rv, block_bytes);
    if (real) {
      if (to_pencil) {
        std::size_t w = 0;
        for (int r = 0; r < np; ++r) {  // block from rank r: its z-range
          for (int zl = 0; zl < nzl; ++zl) {
            for (int y = 0; y < p.ny; ++y) {
              for (int xl = 0; xl < nxl; ++xl) {
                pencil[pencil_idx(xl, y, r * nzl + zl)] = recvbuf[w++];
              }
            }
          }
        }
      } else {
        std::size_t w = 0;
        for (int r = 0; r < np; ++r) {  // block from rank r: its x-range
          for (int z = 0; z < nzl; ++z) {
            for (int y = 0; y < p.ny; ++y) {
              for (int xl = 0; xl < nxl; ++xl) {
                slab[slab_idx(r * nxl + xl, y, z)] = recvbuf[w++];
              }
            }
          }
        }
      }
    }
  };

  auto fft_z = [&](int sign) -> sim::Task<void> {
    co_await comm.compute(static_cast<double>(pencil_n) *
                          p.sec_per_point_pass);
    if (!real) co_return;
    for (int xl = 0; xl < nxl; ++xl) {
      for (int y = 0; y < p.ny; ++y) {
        fft_line(&pencil[pencil_idx(xl, y, 0)], p.nz, sign);
      }
    }
  };

  auto fft3d = [&](int sign) -> sim::Task<void> {
    co_await fft_xy(sign);
    co_await transpose(true);
    co_await fft_z(sign);
    co_await transpose(false);
  };

  // Verification round-trip (real mode, before the timed section).
  // Scalars handed to MPI live at function scope for the whole run, as
  // CG's psum buffers do, not in a block scope of the frame.
  double gerr = 0;
  AppResult out;
  if (real) {
    co_await fft3d(-1);
    co_await fft3d(+1);
    const double scale =
        1.0 / (static_cast<double>(p.nx) * p.ny * p.nz);
    double max_err = 0;
    for (std::size_t i = 0; i < slab_n; ++i) {
      max_err = std::max(max_err, std::abs(slab[i] * scale - init[i]));
    }
    gerr = max_err;
    co_await comm.allreduce(View::out(&gerr, 8), 1, Dtype::kDouble,
                            ROp::kMax);
    out.verified = gerr < 1e-10;
    out.checksum = gerr;
    for (std::size_t i = 0; i < slab_n; ++i) slab[i] *= scale;
  }

  co_await comm.barrier();
  const double t0 = comm.wtime();

  // NPB FT leaves the data transposed between iterations instead of
  // transposing back (one alltoall per iteration; Table 1's 22 huge
  // messages). We alternate: slab->pencil on even iterations,
  // pencil->slab on odd.
  for (int iter = 0; iter < p.iterations; ++iter) {
    const bool to_pencil = (iter % 2) == 0;
    // evolve: frequency-domain phase factors (layout-independent).
    co_await comm.compute(static_cast<double>(slab_n) *
                          p.sec_per_point_pass * 0.5);
    if (real) {
      const double theta = 1e-6 * (iter + 1);
      const Cplx ph(std::cos(theta), std::sin(theta));
      for (auto& c : (to_pencil ? slab : pencil)) c *= ph;
    }
    if (to_pencil) {
      co_await fft_xy(-1);
      co_await transpose(true);
      co_await fft_z(-1);
    } else {
      co_await fft_z(+1);
      co_await transpose(false);
      co_await fft_xy(+1);
    }
    // Checksum allreduce (complex => 2 doubles).
    double sum[2] = {0, 0};
    if (real) {
      const auto& arr = to_pencil ? pencil : slab;
      Cplx s(0, 0);
      for (std::size_t i = 0; i < arr.size(); i += 1024) s += arr[i];
      sum[0] = s.real();
      sum[1] = s.imag();
    }
    View sv2 = real ? View::out(sum, 16)
                    : View::synth(synth_addr(me, kSum), 16);
    co_await comm.allreduce(sv2, 2, Dtype::kDouble, ROp::kSum);
    if (real && !(std::isfinite(sum[0]) && std::isfinite(sum[1]))) {
      out.verified = false;
    }
  }

  out.app_seconds = comm.wtime() - t0;
  co_return out;
}

}  // namespace mns::apps
