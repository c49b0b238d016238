// Parallel sweep harness: fans independent simulation points over a
// thread pool.
//
// The paper's artifacts are sweeps of independent deterministic
// simulations — (net, size, window, app, nodes) points that share no
// state. SweepRunner exploits exactly that independence and nothing more:
//
//   - each point owns its private Engine/Cluster, constructed and run
//     entirely on one worker thread, so per-point determinism is the
//     single-threaded determinism the simulator already guarantees;
//   - results come back in input order regardless of --jobs, so emitted
//     tables are bit-identical between --jobs 1 and --jobs N;
//   - parallelism lives ONLY here, between simulations, never inside one.
//     tools/simcheck enforces that no other src/ code touches threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mns::sweep {

/// The machine's worker count (for `--jobs 0` = "whole machine").
int hardware_jobs() noexcept;

class SweepRunner {
 public:
  /// jobs <= 1 runs every point inline on the caller (no threads are
  /// created at all); jobs == 0 means hardware_jobs().
  explicit SweepRunner(int jobs = 1)
      : jobs_(jobs == 0 ? hardware_jobs() : jobs) {}

  int jobs() const noexcept { return jobs_; }

  /// Evaluate fn(0) .. fn(n-1), distributing points over the pool, and
  /// return the results in index order. If points throw, the exception of
  /// the lowest-index failing point is rethrown on the caller after all
  /// workers drain (deterministic error reporting); later points may be
  /// skipped once a failure is seen.
  template <class Fn>
  auto run_indexed(std::size_t n, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::optional<R>> slots(n);
    if (jobs_ <= 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) slots[i].emplace(fn(i));
    } else {
      std::atomic<std::size_t> next{0};
      std::atomic<bool> failed{false};
      std::vector<std::exception_ptr> errors(n);
      auto worker = [&]() noexcept {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          if (failed.load(std::memory_order_relaxed)) return;
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
          }
        }
      };
      const std::size_t nthreads =
          std::min(static_cast<std::size_t>(jobs_), n);
      std::vector<std::thread> pool;
      pool.reserve(nthreads - 1);
      for (std::size_t t = 0; t + 1 < nthreads; ++t) {
        pool.emplace_back(worker);
      }
      worker();  // the caller is a worker too
      for (auto& th : pool) th.join();
      for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
    std::vector<R> out;
    out.reserve(n);
    for (auto& s : slots) {
      // Reaching here means no worker recorded an exception, which with
      // the rethrow loop above implies every slot was filled; check it
      // anyway so a future scheduling bug surfaces as an error instead
      // of UB on an empty optional.
      if (!s.has_value()) {
        throw std::logic_error("SweepRunner: point skipped without error");
      }
      out.push_back(std::move(*s));
    }
    return out;
  }

  /// run_indexed over a list of point descriptors.
  template <class In, class Fn>
  auto map(const std::vector<In>& items, Fn&& fn) const
      -> std::vector<std::invoke_result_t<Fn&, const In&>> {
    return run_indexed(items.size(),
                       [&](std::size_t i) { return fn(items[i]); });
  }

 private:
  int jobs_;
};

}  // namespace mns::sweep
