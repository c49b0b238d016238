// Pooled allocation for coroutine frames.
//
// A class-B skeleton run spawns millions of transient Task<> frames
// (MPI calls, per-message channel tasks, collective fan-outs);
// with the default allocator every one of them is a global
// operator-new/delete round trip. This pool routes frame allocation
// through a per-thread size-binned freelist: after warm-up a frame
// allocation is a pointer pop and a free is a pointer push.
//
// Per-thread, not global-locked: the sweep runner (src/sweep/) executes
// independent simulations on worker threads, and a simulation allocates
// and frees all of its frames on its own thread, so the arenas never
// contend and determinism is untouched. The pool has no effect on
// simulated results — only on host-side speed.
//
// Conservation: every frame allocated must be freed by simulation end.
// register_audits() wires that invariant into the finalize AuditReport
// (Cluster::make_audit_report), so a leaked frame fails the run loudly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mns::audit {
class AuditReport;
}

namespace mns::sim::frame_pool {

/// Allocation counters for the calling thread's arena.
struct Stats {
  std::uint64_t allocated = 0;  // every allocate() call
  std::uint64_t freed = 0;      // every deallocate() call
  std::uint64_t pool_hits = 0;  // served by popping a freelist block
  std::uint64_t oversize = 0;   // larger than the largest bin (unpooled)
  std::uint64_t outstanding() const { return allocated - freed; }
};

/// Allocate `bytes` from the calling thread's arena.
void* allocate(std::size_t bytes);
/// Return a block obtained from allocate(). Safe for null.
void deallocate(void* p) noexcept;

Stats stats() noexcept;

/// Release every cached free block back to the global allocator. The
/// arena keeps serving afterwards; outstanding blocks are unaffected.
void trim() noexcept;

/// Finalize check: every frame allocated on this thread has been freed
/// (the pool is empty-at-exit). Register alongside the engine checks.
void register_audits(audit::AuditReport& report);

/// Mixin giving a coroutine promise (and thus its frame) pooled
/// allocation: `struct promise_type : frame_pool::PoolAllocated { ... }`.
struct PoolAllocated {
  static void* operator new(std::size_t n) { return allocate(n); }
  static void operator delete(void* p) noexcept { deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    deallocate(p);
  }
};

}  // namespace mns::sim::frame_pool
