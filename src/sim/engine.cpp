#include "sim/engine.hpp"

#include <algorithm>

#include "audit/report.hpp"
#include "sim/frame_pool.hpp"

namespace mns::sim {

namespace {
// 4-ary heap: children of i are [4i+1, 4i+4], parent is (i-1)/4. Shallower
// than a binary heap (log4 vs log2 levels) and the four children of one
// parent sit in adjacent memory, so a sift touches fewer cache lines.
constexpr std::size_t kHeapArity = 4;

// y if keys[y] orders before keys[x], else x — as arithmetic, not a branch.
inline std::size_t pick(const EventKey* keys, std::size_t x,
                        std::size_t y) noexcept {
  const std::size_t y_first = keys[y].before(keys[x]);
  return x ^ ((x ^ y) & (0 - y_first));
}

// The least of the children [first, first+3] of a heap of n entries
// (first < n), as a tournament of selects: which child wins depends on the
// keys, which the branch predictor cannot learn, so no branch depends on
// it. Indices past the end are clamped to the last entry, which then only
// plays against itself or a sibling.
inline std::size_t min_child(const EventKey* keys, std::size_t first,
                             std::size_t n) noexcept {
  const std::size_t last = n - 1;
  const std::size_t a = pick(keys, first, std::min(first + 1, last));
  const std::size_t b =
      pick(keys, std::min(first + 2, last), std::min(first + 3, last));
  return pick(keys, a, b);
}
}  // namespace

// Root coroutine wrapper: owns the process Task, reports completion and
// errors to the engine. On completion the engine destroys the frame from
// the final-suspend point, so finished processes cost nothing.
struct Engine::Root {
  struct promise_type : frame_pool::PoolAllocated {
    Engine* eng = nullptr;
    std::size_t root_index = 0;  // position in Engine::roots_ for O(1) retire
    bool daemon = false;
    Root get_return_object() {
      return Root{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // The frame is suspended at its final point: destroying it here is
        // well-defined and control returns to the engine's event loop.
        h.promise().eng->retire(h);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      eng->process_failed(std::current_exception());
    }
  };
  std::coroutine_handle<promise_type> handle;
};

namespace {
Engine::Root make_root(Task<> t) { co_await t; }
}  // namespace

Engine::~Engine() { drop_processes(); }

void Engine::drop_processes() {
  // Swap out roots_ first: destroying a frame can (transitively) destroy
  // Tasks that are themselves roots-in-waiting, and must not observe a
  // half-cleared vector.
  std::vector<std::coroutine_handle<>> roots = std::move(roots_);
  roots_.clear();
  for (auto h : roots) {
    if (h) h.destroy();
  }
  // Pending event payloads capture handles into the frames just
  // destroyed; drop them unrun (~EventFn reclaims boxed closures).
  heap_keys_.clear();
  heap_slots_.clear();
  root_open_ = false;
  slab_.clear();
  slab_free_.clear();
  slab_seq_.clear();
  tombstones_ = 0;
  nowq_.clear();
  nowq_head_ = 0;
  live_ = 0;
}

void Engine::schedule_future(std::int64_t at_ps, EventFn fn) {
  if (at_ps < now_.count_ps()) {
    throw std::logic_error("Engine::at: scheduling into the past");
  }
  heap_push(Key::make(at_ps, next_seq_++), std::move(fn));
}

// MNS_HOT: slab and heap arrays grow amortized and reuse free slots; in
// steady state pushes recycle capacity without touching the allocator.
MNS_HOT std::uint32_t Engine::heap_push(Key key, EventFn fn) {
  // Park the payload in the slab; only (key, slot) enter the sift.
  std::uint32_t slot;
  if (!slab_free_.empty()) {
    slot = slab_free_.back();
    slab_free_.pop_back();
    slab_[slot] = std::move(fn);
    slab_seq_[slot] = key.seq();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
    slab_seq_.push_back(key.seq());
  }
  if (root_open_) {
    // The running event's root is still open: one sift-down places this
    // push and closes it.
    root_open_ = false;
    fill_root(key, slot);
    return slot;
  }
  std::size_t i = heap_keys_.size();
  heap_keys_.push_back(key);
  heap_slots_.push_back(slot);
  // Hole sift-up: move parents down into the hole instead of swapping.
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!key.before(heap_keys_[parent])) break;
    heap_keys_[i] = heap_keys_[parent];
    heap_slots_[i] = heap_slots_[parent];
    i = parent;
  }
  heap_keys_[i] = key;
  heap_slots_[i] = slot;
  return slot;
}

// MNS_HOT: the free-list push_back recycles slab capacity (amortized).
MNS_HOT EventFn Engine::open_root() {
  const std::uint32_t slot = heap_slots_.front();
  EventFn fn = std::move(slab_[slot]);
  slab_free_.push_back(slot);
  root_open_ = true;
  return fn;
}

void Engine::fill_root(Key key, std::uint32_t slot) {
  Key* keys = heap_keys_.data();
  std::uint32_t* slots = heap_slots_.data();
  const std::size_t n = heap_slots_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    const std::size_t best = min_child(keys, first, n);
    if (!keys[best].before(key)) break;
    keys[i] = keys[best];
    slots[i] = slots[best];
    i = best;
  }
  keys[i] = key;
  slots[i] = slot;
}

void Engine::close_root() {
  root_open_ = false;
  const Key last_key = heap_keys_.back();
  const std::uint32_t last_slot = heap_slots_.back();
  heap_keys_.pop_back();
  heap_slots_.pop_back();
  if (!heap_slots_.empty()) fill_root(last_key, last_slot);
}

// MNS_HOT: roots_ grows amortized; slots are compacted on completion and
// capacity persists for the lifetime of the engine.
MNS_HOT void Engine::spawn(Task<> t, bool daemon) {
  Root root = make_root(std::move(t));
  root.handle.promise().eng = this;
  root.handle.promise().root_index = roots_.size();
  root.handle.promise().daemon = daemon;
  roots_.push_back(root.handle);
  if (!daemon) ++live_;
  // Start through the queue at the current time (spawn order = start
  // order) on the resume fast path — no closure, no boxing.
  resume_at(now_, root.handle);
}

bool Engine::step() {
  MNS_AUDIT(!root_open_, "step() re-entered from an event handler");
 again:
  const bool have_now = nowq_head_ < nowq_.size();
  if (!have_now && queue_empty()) return false;
  if (events_processed_ >= event_limit_) throw EventLimitError(event_limit_);
  // The now-queue holds events at exactly now() in seq (FIFO) order; a
  // heap event competes only when it carries the same timestamp with a
  // smaller seq (scheduled for this instant before the clock reached it).
  bool take_heap = !have_now;
  if (have_now && !queue_empty()) {
    const Key top = queue_top_key();
    if (top.at_ps() == now_.count_ps() && top.seq() < nowq_[nowq_head_].seq) {
      take_heap = true;
    }
  }
  if (take_heap && !slab_[queue_top_slot()]) {
    // Cancelled tombstone: discard without advancing the clock, counting
    // an event, or consulting the event limit budget beyond this check.
    MNS_AUDIT(tombstones_ > 0, "tombstone popped with zero outstanding");
    (void)open_root();
    close_root();
    --tombstones_;
    goto again;
  }
  const std::int64_t at_ps =
      take_heap ? queue_top_key().at_ps() : now_.count_ps();
  if (at_ps > time_limit_ps_) {
    // Progress watchdog horizon crossed: the queue is still live (this
    // event would have run), so this is a livelock, not a deadlock. The
    // event stays queued.
    throw LivelockError(
        "engine clock would cross the configured time limit (" +
        Time::ps(time_limit_ps_).str() + ")\n  now           = " +
        now_.str() + "\n  next event at = " + Time::ps(at_ps).str() +
        "\n  events run    = " + std::to_string(events_processed_) +
        "\n  pending       = " + std::to_string(pending_events()) +
        "\n  live procs    = " + std::to_string(live_));
  }
#if defined(MNS_AUDIT_ENABLED)
  const std::uint64_t seq =
      take_heap ? queue_top_key().seq() : nowq_[nowq_head_].seq;
  MNS_AUDIT(at_ps >= now_.count_ps(),
            "event time regressed behind the clock");
  MNS_AUDIT(events_processed_ == 0 || at_ps > audit_last_at_.count_ps() ||
                (at_ps == audit_last_at_.count_ps() &&
                 seq > audit_last_seq_),
            "determinism tie-break violated: equal-time events must pop "
            "in schedule (seq) order");
  audit_last_at_ = Time::ps(at_ps);
  audit_last_seq_ = seq;
#endif
  if (!take_heap) {
    EventFn fn = std::move(nowq_[nowq_head_++].fn);
    if (nowq_head_ == nowq_.size()) {
      nowq_.clear();
      nowq_head_ = 0;
    }
    ++events_processed_;
    fn.invoke();
    return true;
  }
  // The root stays open while the handler runs; its first future push
  // fills it. The guard closes it when nothing did, also when the handler
  // throws, so the heap is whole again before run() rethrows.
  struct RootGuard {
    Engine& eng;
    ~RootGuard() {
      if (eng.root_open_) eng.close_root();
    }
  };
  EventFn fn = open_root();
  const RootGuard guard{*this};
  now_ = Time::ps(at_ps);
  ++events_processed_;
  fn.invoke();
  return true;
}

void Engine::run() {
  while (step()) {
    if (failure_) {
      auto e = failure_;
      failure_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  if (live_ > 0) throw DeadlockError(live_);
}

bool Engine::run_until(Time deadline) {
  for (;;) {
    // next_event_at_ps() purges cancelled tombstones off the queue top,
    // so the deadline test sees the time of an event that will actually
    // run — a tombstone at t <= deadline must not admit a live event
    // beyond it.
    const std::int64_t next_at = next_event_at_ps();
    if (next_at == INT64_MAX) return true;
    if (next_at > deadline.count_ps()) return false;
    step();
    if (failure_) {
      auto e = failure_;
      failure_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

std::int64_t Engine::next_event_at_ps() {
  if (nowq_head_ < nowq_.size()) return now_.count_ps();
  if (root_open_) close_root();  // asked from inside a handler
  for (;;) {
    if (queue_empty()) return INT64_MAX;
    if (slab_[queue_top_slot()]) return queue_top_key().at_ps();
    // Cancelled tombstone on top: discard it so the reported time names
    // an event that will actually run (same bookkeeping as step()).
    (void)open_root();
    close_root();
    MNS_AUDIT(tombstones_ > 0, "tombstone popped with zero outstanding");
    --tombstones_;
  }
}

void Engine::retire(std::coroutine_handle<> h) {
  const auto rh = std::coroutine_handle<Root::promise_type>::from_address(
      h.address());
  if (!rh.promise().daemon) --live_;
  const std::size_t idx = rh.promise().root_index;
  // Swap-erase: root order is irrelevant, only liveness matters.
  roots_[idx] = roots_.back();
  if (roots_[idx] != h) {
    auto moved = std::coroutine_handle<Root::promise_type>::from_address(
        roots_[idx].address());
    moved.promise().root_index = idx;
  }
  roots_.pop_back();
  h.destroy();
}

void Engine::process_failed(std::exception_ptr e) {
  if (!failure_) failure_ = e;
}

void Engine::register_audits(audit::AuditReport& report) {
  report.add_check("sim::Engine", [this](audit::AuditReport::Scope& s) {
    s.require_eq(pending_events(), std::size_t{0},
                 "event queue not drained at finalize");
    s.require_eq(tombstones_, std::size_t{0},
                 "cancelled event tombstone(s) still parked at finalize");
    s.require_eq(live_, std::size_t{0},
                 "non-daemon process(es) still live at finalize");
    s.require(now_ >= Time::zero(), "clock below zero at finalize");
  });
}

}  // namespace mns::sim
