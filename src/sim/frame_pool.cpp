#include "sim/frame_pool.hpp"

#include <new>

#include "audit/audit.hpp"
#include "audit/report.hpp"

namespace mns::sim::frame_pool {

namespace {

// Bins are kGranule-wide up to kMaxPooledBytes. Coroutine frames cluster
// in a few dozen sizes well under 2 KiB (the largest collective frames
// stay under 1 KiB), so 64-byte bins up to 4 KiB cover everything the
// simulator spawns in bulk; anything larger falls through to the global
// allocator.
constexpr std::size_t kGranule = 64;
constexpr std::size_t kMaxPooledBytes = 4096;
constexpr std::size_t kBinCount = kMaxPooledBytes / kGranule;

// Every block carries a 16-byte header so deallocate() can find the bin
// without a size parameter; 16 bytes also preserves new-alignment for the
// frame that follows.
struct alignas(16) Header {
  std::uint32_t bin;
  std::uint32_t magic;
};
constexpr std::uint32_t kMagic = 0x4650'4f4cu;
constexpr std::uint32_t kOversize = 0xffff'ffffu;

struct FreeNode {
  FreeNode* next;
};

struct Arena {
  FreeNode* bins[kBinCount] = {};
  Stats st;

  ~Arena() { release_free_blocks(); }

  void release_free_blocks() noexcept {
    for (auto*& head : bins) {
      while (head) {
        FreeNode* n = head;
        head = n->next;
        ::operator delete(static_cast<void*>(n));
      }
    }
  }
};

Arena& arena() noexcept {
  thread_local Arena a;
  return a;
}

}  // namespace

void* allocate(std::size_t bytes) {
  Arena& a = arena();
  ++a.st.allocated;
  const std::size_t total = bytes + sizeof(Header);
  if (total <= kMaxPooledBytes) {
    const std::size_t bin = (total + kGranule - 1) / kGranule - 1;
    void* block;
    if (FreeNode* n = a.bins[bin]) {
      a.bins[bin] = n->next;
      ++a.st.pool_hits;
      block = n;
    } else {
      block = ::operator new((bin + 1) * kGranule);
    }
    auto* h = new (block) Header{static_cast<std::uint32_t>(bin), kMagic};
    return h + 1;
  }
  ++a.st.oversize;
  auto* h = new (::operator new(total)) Header{kOversize, kMagic};
  return h + 1;
}

void deallocate(void* p) noexcept {
  if (!p) return;
  Arena& a = arena();
  ++a.st.freed;
  Header* h = static_cast<Header*>(p) - 1;
  MNS_AUDIT(h->magic == kMagic,
            "frame_pool::deallocate on a block it did not allocate");
  const std::uint32_t bin = h->bin;
  if (bin == kOversize) {
    ::operator delete(static_cast<void*>(h));
    return;
  }
  // The header memory is reused as the freelist link.
  auto* n = new (static_cast<void*>(h)) FreeNode{a.bins[bin]};
  a.bins[bin] = n;
}

Stats stats() noexcept { return arena().st; }

void trim() noexcept { arena().release_free_blocks(); }

void register_audits(audit::AuditReport& report) {
  report.add_check("sim::frame_pool", [](audit::AuditReport::Scope& s) {
    const Stats st = stats();
    s.require_eq(st.freed, st.allocated,
                 "coroutine frame pool not empty at finalize (leaked or "
                 "still-live frame)");
  });
}

}  // namespace mns::sim::frame_pool
