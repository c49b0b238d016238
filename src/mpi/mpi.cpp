#include "mpi/mpi.hpp"

#include <algorithm>
#include <iterator>
#include <string>

#include "audit/report.hpp"

namespace mns::mpi {

std::uint64_t Mpi::canon_addr(std::uint64_t addr, std::uint64_t bytes) {
  const std::uint64_t end = addr + bytes;
  // A range inside a known region (the buffer itself, or a slice of it)
  // resolves at the same offset inside that region's canonical range.
  auto next = canon_regions_.upper_bound(addr);
  if (next != canon_regions_.begin()) {
    const auto& [start, region] = *std::prev(next);
    if (end <= region.end) return region.base + (addr - start);
  }
  // First touch: a fresh page-aligned canonical region. Known regions the
  // range overlaps (a slice touched before its parent, a buffer touched
  // again with a larger size) merge into it, so regions stay disjoint.
  auto first = next;
  if (first != canon_regions_.begin() && std::prev(first)->second.end > addr) {
    --first;
  }
  std::uint64_t lo = addr;
  std::uint64_t hi = end;
  auto last = first;
  for (; last != canon_regions_.end() && last->first < hi; ++last) {
    lo = std::min(lo, last->first);
    hi = std::max(hi, last->second.end);
  }
  canon_regions_.erase(first, last);
  const std::uint64_t base = canon_next_;
  canon_next_ += (hi - lo + kCanonPage - 1) / kCanonPage * kCanonPage;
  canon_regions_.emplace(lo, CanonRegion{hi, base});
  return base + (addr - lo);
}

void Mpi::register_audits(audit::AuditReport& report) {
  report.add_check("mpi::Mpi", [this](audit::AuditReport::Scope& s) {
    s.require_eq(ledger_.created, ledger_.completed,
                 "request(s) created but never completed");
    s.require_eq(ledger_.double_completed, std::uint64_t{0},
                 "request(s) completed more than once");
    for (const auto& proc : procs_) {
      const std::string rank = "rank " + std::to_string(proc->rank());
      s.require_eq(proc->matcher().unexpected_count(), std::size_t{0},
                   rank + ": orphaned unexpected message(s) at finalize");
      s.require_eq(proc->matcher().posted_count(), std::size_t{0},
                   rank + ": posted receive(s) never matched");
      s.require_eq(proc->deferred_pending(), std::size_t{0},
                   rank + ": deferred protocol action(s) never drained");
      s.require(!proc->cpu().in_mpi(),
                rank + ": still inside an MPI call at finalize");
    }
    s.require_eq(slots_.size(), std::size_t{0},
                 "collective slot(s) left open at finalize");
  });
}

}  // namespace mns::mpi
