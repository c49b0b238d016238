// The MPI "job": per-rank processes, the device, the profiler, and the
// rank-to-node topology. One Mpi object per simulated application run.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "mpi/device.hpp"
#include "mpi/proc.hpp"
#include "prof/recorder.hpp"
#include "prof/trace.hpp"
#include "sim/engine.hpp"

namespace mns::audit {
class AuditReport;
}

namespace mns::mpi {

struct Topology {
  /// rank -> node index. Slot (position within node) is derived.
  std::vector<int> rank_node;

  static Topology block(std::size_t nodes, int ppn) {
    // The paper's "block" mapping: ranks 0..ppn-1 on node 0, etc.
    Topology t;
    t.rank_node.reserve(nodes * static_cast<std::size_t>(ppn));
    for (std::size_t n = 0; n < nodes; ++n) {
      for (int s = 0; s < ppn; ++s) {
        t.rank_node.push_back(static_cast<int>(n));
      }
    }
    return t;
  }
};

class Mpi {
 public:
  Mpi(sim::Engine& eng, Topology topo)
      : eng_(&eng), topo_(std::move(topo)),
        recorder_(topo_.rank_node.size()) {
    std::vector<int> slot_counter(
        topo_.rank_node.empty()
            ? 0
            : static_cast<std::size_t>(
                  *std::max_element(topo_.rank_node.begin(),
                                    topo_.rank_node.end()) +
                  1),
        0);
    procs_.reserve(topo_.rank_node.size());
    for (std::size_t r = 0; r < topo_.rank_node.size(); ++r) {
      const int node = topo_.rank_node[r];
      procs_.push_back(std::make_unique<Proc>(
          eng, static_cast<Rank>(r), node,
          slot_counter[static_cast<std::size_t>(node)]++));
    }
  }

  void set_device(std::unique_ptr<Device> dev) { device_ = std::move(dev); }

  sim::Engine& engine() const { return *eng_; }
  Device& device() const {
    if (!device_) throw std::logic_error("Mpi: no device installed");
    return *device_;
  }

  std::size_t size() const { return procs_.size(); }
  Proc& proc(Rank r) { return *procs_.at(static_cast<std::size_t>(r)); }
  int node_of(Rank r) const {
    return topo_.rank_node.at(static_cast<std::size_t>(r));
  }
  bool same_node(Rank a, Rank b) const { return node_of(a) == node_of(b); }

  prof::Recorder& recorder() { return recorder_; }

  /// Rebase a real view's model-visible address onto a per-job canonical
  /// address space: each first-touched buffer gets its own page-aligned
  /// region, keyed by its exact host start address, and a slice resolves
  /// inside its parent's region at the same offset.
  ///
  /// View::in/out derive the address from the host pointer, which depends
  /// on ASLR, allocator history and — with pooled coroutine frames — on
  /// which thread ran earlier sweep points. The registration-cache and
  /// NIC-MMU models key their timing on those addresses, so feeding them
  /// raw pointers makes simulated time depend on host memory layout.
  /// Canonical regions keep what the program determines (the same buffer
  /// => the same pages, slices inside their parent) and drop what the
  /// allocator determines (a buffer's offset within its host page, and
  /// which buffers happen to share one), so the values are a pure
  /// function of this job's deterministic call order. Synthetic and
  /// already-canonical views pass through unchanged.
  View canon(View v) {
    if (v.synthetic() || v.canonical() || v.bytes() == 0) return v;
    return v.rebased(canon_addr(v.addr(), v.bytes()));
  }

  /// Request-completion conservation ledger; every RequestState the job
  /// creates reports into it (see request.hpp).
  RequestLedger& request_ledger() { return ledger_; }

  /// Finalize-time conservation checks over the whole MPI layer: every
  /// request completed exactly once, matcher queues empty (no orphaned
  /// unexpected messages, no dangling posted receives), deferred protocol
  /// work drained, no rank still inside an MPI call, and no collective
  /// slot left open.
  void register_audits(audit::AuditReport& report);

  /// Optional execution tracer (timeline recording); null disables.
  void set_tracer(prof::Tracer* t) { tracer_ = t; }
  prof::Tracer* tracer() const { return tracer_; }

  /// Armed by the cluster when the fault plan contains fail-stop clauses
  /// (linkdown/nicdown). Collectives then run a deterministic
  /// error-agreement epilogue so every live rank observes the same
  /// outcome; transient-only and fault-free runs skip it entirely,
  /// keeping their event streams bit-identical.
  void set_fail_stop_armed(bool v) { fail_stop_armed_ = v; }
  bool fail_stop_armed() const { return fail_stop_armed_; }

  /// Collective-coordination slot (used for the Elan hardware-broadcast
  /// fast path): every rank arrives at collective #seq; the root's
  /// broadcast completion releases them all, and the payload lets
  /// non-roots copy real broadcast data out.
  struct CollSlot {
    explicit CollSlot(sim::Engine& e) : trig(e) {}
    /// The root's buffer may die before the last rank resumes (the root
    /// returns from its bcast as soon as the hardware has the data), so
    /// stage the payload bytes in the slot rather than aliasing the
    /// root's view.
    void stage_payload(const View& buf) {
      payload = buf;
      if (!buf.synthetic()) {
        staged_.assign(buf.data(), buf.data() + buf.bytes());
        payload = View::in(staged_.data(), buf.bytes());
      }
    }
    sim::Trigger trig;
    View payload;
    int arrived = 0;

   private:
    std::vector<std::byte> staged_;
  };

  CollSlot& collective_slot(std::uint64_t seq) {
    auto it = slots_.find(seq);
    if (it == slots_.end()) {
      it = slots_.emplace(seq, std::make_unique<CollSlot>(*eng_)).first;
    }
    return *it->second;
  }
  void drop_collective_slot(std::uint64_t seq) { slots_.erase(seq); }

 private:
  std::uint64_t canon_addr(std::uint64_t addr, std::uint64_t bytes);

  sim::Engine* eng_;
  Topology topo_;
  prof::Recorder recorder_;
  RequestLedger ledger_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::unique_ptr<Device> device_;
  prof::Tracer* tracer_ = nullptr;
  bool fail_stop_armed_ = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<CollSlot>> slots_;
  // Canonical address space: every first-touched buffer gets its own
  // page-aligned region. The page is the finest model page size in use
  // (IB/GM 4 KiB, Elan 8 KiB), so distinct buffers never share a 4 KiB
  // page; the base sits above the skeletons' synthetic address space
  // (0x4000'0000'0000 + rank<<32), so the two never collide in the
  // per-node caches.
  static constexpr std::uint64_t kCanonPage = 4096;
  struct CanonRegion {
    std::uint64_t end;   // host end address (exclusive)
    std::uint64_t base;  // canonical address of the host start
  };
  std::map<std::uint64_t, CanonRegion> canon_regions_;  // by host start
  std::uint64_t canon_next_ = 0x7000'0000'0000ULL;
};

}  // namespace mns::mpi
