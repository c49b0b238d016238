// MPI profiling layer.
//
// The paper produced its application-characterization tables (message-size
// distribution, non-blocking usage, buffer reuse, collective share,
// intra-node share — Tables 1 and 3-6) by logging through the MPICH
// logging interface. This recorder plays that role: the MPI library calls
// it on every operation, and the bench harnesses query it to regenerate
// the same tables from *our* instrumented runs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/stats.hpp"

namespace mns::prof {

struct RankStats {
  // Point-to-point sends by payload size (Table 1).
  util::SizeHistogram sent;

  // Non-blocking usage (Table 3).
  std::uint64_t isend_calls = 0;
  std::uint64_t isend_bytes = 0;
  std::uint64_t irecv_calls = 0;
  std::uint64_t irecv_bytes = 0;

  // Buffer reuse (Table 4): an "access" is any user buffer handed to MPI.
  std::uint64_t buffer_accesses = 0;
  std::uint64_t buffer_reuses = 0;
  std::uint64_t buffer_bytes = 0;
  std::uint64_t buffer_reuse_bytes = 0;

  // Collective share (Table 5).
  std::uint64_t mpi_calls = 0;        // all communication calls
  std::uint64_t collective_calls = 0;
  std::uint64_t total_bytes = 0;      // communication volume
  std::uint64_t collective_bytes = 0;

  // Intra-node point-to-point share (Table 6).
  std::uint64_t ptp_calls = 0;
  std::uint64_t ptp_bytes = 0;
  std::uint64_t intra_calls = 0;
  std::uint64_t intra_bytes = 0;
};

class Recorder {
 public:
  explicit Recorder(std::size_t ranks)
      : ranks_(ranks), seen_(ranks) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void on_send(int rank, std::uint64_t bytes, bool nonblocking,
               std::uint64_t addr, bool intra_node);
  void on_recv(int rank, std::uint64_t bytes, bool nonblocking,
               std::uint64_t addr);
  /// One collective call; `bytes` is this rank's contributed volume.
  void on_collective(int rank, const std::string& op, std::uint64_t bytes,
                     std::uint64_t addr);

  const RankStats& rank(int r) const {
    return ranks_.at(static_cast<std::size_t>(r));
  }
  std::size_t rank_count() const { return ranks_.size(); }

  /// Sum across ranks (the paper reports whole-application numbers).
  RankStats totals() const;

  /// Per-collective-op call counts across all ranks.
  const std::unordered_map<std::string, std::uint64_t>& collective_ops()
      const {
    return coll_ops_;
  }

 private:
  void touch_buffer(RankStats& st, std::uint64_t addr, std::uint64_t bytes);

  bool enabled_ = true;
  std::vector<RankStats> ranks_;
  std::vector<std::unordered_set<std::uint64_t>> seen_;
  std::unordered_map<std::string, std::uint64_t> coll_ops_;
};

}  // namespace mns::prof
