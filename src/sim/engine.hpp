// Discrete-event simulation engine.
//
// The engine owns a time-ordered event queue and the root coroutine frames
// of all spawned processes. Determinism: events at equal timestamps run in
// schedule order (monotonic sequence number tie-break), and nothing in the
// simulator consults wall-clock time or unseeded randomness.
//
// Hot-path design (the simulator spends most of its host time here):
//   - An event payload is an EventFn — a raw function pointer plus two
//     inline words. The dominant payload, "resume this coroutine", is a
//     fast path with no type erasure and no allocation; captureless and
//     small trivially-copyable callables are stored inline; only genuinely
//     capturing callbacks fall back to one boxed heap closure.
//   - Events scheduled at exactly now() skip the heap via a FIFO
//     now-queue.
//   - Future events live in a 4-ary min-heap split structure-of-arrays
//     style: the sift loops move only 16-byte packed (at, seq) keys and
//     4-byte slab slots, while the 24-byte payloads sit still in a
//     recycled slab.
//   - One sift per heap event: step() leaves the root slot of the event it
//     runs open, and the handler's first future push fills it with one
//     sift-down (a handler that pushes nothing has the hole closed with
//     the last element afterwards). Each level picks the least of its four
//     children as a tournament of selects, with no data-dependent branch.
//     Keys (at, seq) are unique, so any correct priority queue pops the
//     same sequence: the open root changes host cost, never event order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/annotations.hpp"

namespace mns::audit {
class AuditReport;
}

namespace mns::sim {

/// Thrown by Engine::run() when processes remain but no event can wake them.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::size_t stuck)
      : std::runtime_error("simulation deadlock: " + std::to_string(stuck) +
                           " process(es) blocked with empty event queue") {}
};

/// Thrown when the configured event budget is exhausted — the guard
/// against live-locks (e.g. an MPI_Probe polling for a message that can
/// never arrive generates events forever without advancing the program).
class EventLimitError : public std::runtime_error {
 public:
  explicit EventLimitError(std::uint64_t limit)
      : std::runtime_error("simulation exceeded its event limit (" +
                           std::to_string(limit) +
                           "); suspected live-lock (unsatisfiable poll?)") {}
};

/// Thrown by the progress watchdog: the simulation keeps scheduling events
/// (so DeadlockError never fires) and keeps advancing time (so no single
/// budget trips), yet the workload makes no forward progress — the classic
/// shape is an RTO storm retransmitting into a dead link forever. Carries
/// a human-readable diagnostic report assembled by whoever detected the
/// livelock (per-flow stages, pending timers, the engine's horizon).
class LivelockError : public std::runtime_error {
 public:
  explicit LivelockError(std::string report)
      : std::runtime_error("simulation livelock: no forward progress\n" +
                           report),
        report_(std::move(report)) {}
  /// The diagnostic report alone (what() prefixes it with a headline).
  const std::string& report() const { return report_; }

 private:
  std::string report_;
};

/// The event payload: a raw function pointer plus two inline words.
///
/// Three storage forms, cheapest first:
///   resume(h)     — the coroutine-resume fast path (a handle address)
///   inline        — captureless or small trivially-copyable callables,
///                   memcpy'd into the two words
///   boxed         — everything else: one heap closure behind a vtable
/// Move-only; an un-invoked boxed payload is destroyed with its event
/// (drop_processes clears the queue without running it).
class EventFn {
 public:
  using Raw = void (*)(void*, void*);

  EventFn() noexcept = default;
  EventFn(Raw fn, void* a, void* b = nullptr) noexcept
      : fn_(fn), a_(a), b_(b) {}

  /// Fast path: `h.resume()` with no erasure and no allocation.
  static EventFn resume(std::coroutine_handle<> h) noexcept {
    return EventFn(&resume_thunk, h.address());
  }

  /// Wrap an arbitrary callable, boxing only when it cannot be stored
  /// inline (capturing more than two words, or non-trivial captures).
  /// MNS_HOT: the boxed branch allocates by design; hot-path callers are
  /// expected to pass fn-pointer payloads that take the inline branches.
  template <class F>
  MNS_HOT static EventFn make(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_empty_v<D> && std::is_trivially_copyable_v<D> &&
                  std::is_default_constructible_v<D>) {
      (void)f;  // stateless: nothing to store
      return EventFn(&stateless_thunk<D>, nullptr);
    } else if constexpr (std::is_trivially_copyable_v<D> &&
                         std::is_trivially_destructible_v<D> &&
                         sizeof(D) <= 2 * sizeof(void*) &&
                         alignof(D) <= alignof(void*)) {
      EventFn ev(&inline_thunk<D>, nullptr, nullptr);
      std::memcpy(&ev.a_, std::addressof(f), sizeof(D));
      return ev;
    } else {
      return EventFn(&boxed_thunk, new Boxed<D>(std::forward<F>(f)));
    }
  }

  EventFn(EventFn&& o) noexcept
      : fn_(std::exchange(o.fn_, nullptr)),
        a_(std::exchange(o.a_, nullptr)),
        b_(std::exchange(o.b_, nullptr)) {}
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      fn_ = std::exchange(o.fn_, nullptr);
      a_ = std::exchange(o.a_, nullptr);
      b_ = std::exchange(o.b_, nullptr);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return fn_ != nullptr; }

  /// Run the payload. Single-shot: consumes a boxed closure.
  void invoke() {
    const Raw fn = std::exchange(fn_, nullptr);
    if (fn == &boxed_thunk) {
      std::unique_ptr<BoxedBase> box(static_cast<BoxedBase*>(a_));
      box->call();
    } else {
      fn(a_, b_);
    }
  }

 private:
  struct BoxedBase {
    virtual void call() = 0;
    virtual ~BoxedBase() = default;
  };
  template <class F>
  struct Boxed final : BoxedBase {
    F f;
    template <class G>
    explicit Boxed(G&& g) : f(std::forward<G>(g)) {}
    void call() override { f(); }
  };

  static void resume_thunk(void* a, void*) {
    std::coroutine_handle<>::from_address(a).resume();
  }
  // Tag only; dispatch happens in invoke() so the box can be reclaimed.
  static void boxed_thunk(void*, void*) {}
  template <class D>
  static void stateless_thunk(void*, void*) {
    D{}();
  }
  template <class D>
  static void inline_thunk(void* a, void* b) {
    void* words[2] = {a, b};
    alignas(alignof(D)) unsigned char buf[sizeof(D)];
    std::memcpy(buf, words, sizeof(D));
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }

  void reset() noexcept {
    if (fn_ == &boxed_thunk) delete static_cast<BoxedBase*>(a_);
    fn_ = nullptr;
  }

  Raw fn_ = nullptr;
  void* a_ = nullptr;
  void* b_ = nullptr;
};

/// Event ordering key: (at, seq) packed into one 128-bit integer so the
/// ordering test is a single unsigned compare (cmp/sbb, no second branch)
/// in the queue's compare loops. at_ps is sign-flipped into the high half
/// so the unsigned order matches the signed (at, seq) lexicographic
/// order.
struct EventKey {
  unsigned __int128 packed;
  static EventKey make(std::int64_t at_ps, std::uint64_t seq) noexcept {
    const auto hi = static_cast<std::uint64_t>(at_ps) ^
                    (std::uint64_t{1} << 63);
    return EventKey{(static_cast<unsigned __int128>(hi) << 64) | seq};
  }
  std::int64_t at_ps() const noexcept {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(packed >> 64) ^
        (std::uint64_t{1} << 63));
  }
  std::uint64_t seq() const noexcept {
    return static_cast<std::uint64_t>(packed);
  }
  bool before(const EventKey& o) const noexcept { return packed < o.packed; }
};

/// Handle to a cancellable event (see Engine::at_cancellable). The pair
/// (slot, seq) is ABA-safe: seq is globally unique, so a handle whose slot
/// has been recycled for a later event simply fails to cancel.
struct EventId {
  std::uint32_t slot = UINT32_MAX;
  std::uint64_t seq = 0;
  bool valid() const noexcept { return slot != UINT32_MAX; }
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedule a payload to run `delay` from now. Negative delays are an
  /// error.
  void after(Time delay, EventFn fn) { at(now_ + delay, std::move(fn)); }
  /// Schedule a payload at absolute time `at` (must be >= now()).
  /// Events at exactly now() — every synchronization wake-up, process
  /// start, and hand-off in the simulator — take the O(1) now-queue fast
  /// path; only genuinely future events pay the heap sift.
  /// MNS_HOT: the now-queue push_back is amortized — its capacity is
  /// retained across clear() and reaches steady state after warm-up.
  MNS_HOT void at(Time when, EventFn fn) {
    const std::int64_t at_ps = when.count_ps();
    if (at_ps == now_.count_ps()) {
      nowq_.push_back(NowEvent{next_seq_++, std::move(fn)});
      return;
    }
    schedule_future(at_ps, std::move(fn));
  }

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<F&>)
  void after(Time delay, F&& fn) {
    at(now_ + delay, EventFn::make(std::forward<F>(fn)));
  }
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<F&>)
  void at(Time when, F&& fn) {
    at(when, EventFn::make(std::forward<F>(fn)));
  }

  /// Schedule a payload that may later be revoked with cancel() — the
  /// shape of a retransmit/timeout timer, which is armed pessimistically
  /// and cancelled on the (common) success path. Cancellable events always
  /// take the heap path, even at exactly now(), so the returned EventId
  /// names a stable slab slot.
  EventId at_cancellable(Time when, EventFn fn) {
    const std::int64_t at_ps = when.count_ps();
    if (at_ps < now_.count_ps()) {
      throw std::logic_error("Engine::at_cancellable: scheduling into the past");
    }
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t slot = heap_push(Key::make(at_ps, seq), std::move(fn));
    return EventId{slot, seq};
  }
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_v<F&>)
  EventId at_cancellable(Time when, F&& fn) {
    return at_cancellable(when, EventFn::make(std::forward<F>(fn)));
  }

  /// Revoke an event scheduled with at_cancellable(). Returns true if the
  /// event was still pending (it will never run); false if it already ran,
  /// was already cancelled, or the id is stale. The payload is destroyed
  /// immediately (a boxed closure is freed here, not at pop time); the
  /// heap entry remains as a tombstone that step() discards without
  /// advancing the clock or counting against the event limit.
  bool cancel(EventId id) {
    if (!id.valid() || id.slot >= slab_.size()) return false;
    if (slab_seq_[id.slot] != id.seq || !slab_[id.slot]) return false;
    slab_[id.slot] = EventFn{};
    ++tombstones_;
    ++events_cancelled_;
    return true;
  }

  /// Coroutine-resume fast paths: no closure, no allocation.
  void resume_after(Time delay, std::coroutine_handle<> h) {
    at(now_ + delay, EventFn::resume(h));
  }
  void resume_at(Time when, std::coroutine_handle<> h) {
    at(when, EventFn::resume(h));
  }

  /// Pre-size the event heap for at least `n` concurrently pending events
  /// (Cluster sizes this from the topology: ranks, NICs, channel depth).
  void reserve_events(std::size_t n) {
    heap_keys_.reserve(n);
    heap_slots_.reserve(n);
    slab_.reserve(n);
  }

  /// Awaitable pause: `co_await eng.delay(Time::us(5));`
  /// Zero-length delays still suspend (and requeue), preserving FIFO
  /// fairness between processes.
  auto delay(Time d) {
    struct Awaiter {
      Engine& eng;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng.resume_after(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Launch `t` as a process. It starts via the event queue at the current
  /// time, so spawn order is start order. A `daemon` process (a NIC
  /// firmware loop, a progress engine) does not keep the simulation alive:
  /// run() completes when only daemons remain blocked.
  void spawn(Task<void> t, bool daemon = false);

  /// Run until the event queue drains. Throws the first exception escaping
  /// any process, or DeadlockError if processes remain blocked.
  void run();

  /// Run until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still run). Returns true if the queue drained.
  bool run_until(Time deadline);

  std::size_t live_processes() const { return live_; }
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t events_cancelled() const { return events_cancelled_; }
  /// Pending *live* events: cancelled tombstones still parked in the heap
  /// are excluded (they will be discarded, never run), and so is the open
  /// root of the event running now.
  std::size_t pending_events() const {
    return queue_size() - tombstones_ + (nowq_.size() - nowq_head_);
  }

  /// Earliest pending live event time in picoseconds, or INT64_MAX when
  /// the queue is empty. Purges cancelled tombstones off the queue top
  /// (without counting events or advancing the clock), so the answer
  /// names an event that will actually run (run_until's deadline test).
  std::int64_t next_event_at_ps();

  /// Abort run()/run_until() with EventLimitError after this many events
  /// (default: effectively unlimited).
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// Progress watchdog: abort with LivelockError the moment an event past
  /// `deadline` would run (default: no limit). Unlike run_until — which
  /// returns control with the queue intact — crossing this horizon is a
  /// hard failure: it converts a runaway simulation (RTO storm, unbounded
  /// poll) into a clean diagnostic instead of an unbounded wall-clock
  /// hang.
  void set_time_limit(Time deadline) { time_limit_ps_ = deadline.count_ps(); }
  Time time_limit() const { return Time::ps(time_limit_ps_); }
  bool has_time_limit() const { return time_limit_ps_ != INT64_MAX; }

  /// Finalize-time conservation checks: event queue drained, no live
  /// non-daemon process. Register after the simulation has run.
  void register_audits(audit::AuditReport& report);

  /// Destroy every suspended process frame and drop pending events.
  /// Owners embedding an Engine next to the objects its processes
  /// reference (Cluster: MPI state, fabrics, node hardware) must call
  /// this before those objects die — frame-local destructors (MpiScope,
  /// Requests) run here and touch them. Idempotent; ~Engine covers the
  /// standalone case.
  void drop_processes();

#if defined(MNS_AUDIT_ENABLED)
  /// Fault injection for audit tests only: force the clock forward so the
  /// next event pop trips the time-monotonicity audit in step().
  void debug_warp_clock_for_test(Time t) { now_ = t; }
#endif

  struct Root;  // root coroutine wrapper; public for the factory coroutine

 private:
  using Key = EventKey;
  // Now-queue entry: the timestamp is implicitly now(), only the seq
  // tie-break is needed to interleave with equal-time heap events.
  struct NowEvent {
    std::uint64_t seq;
    EventFn fn;
  };

  void schedule_future(std::int64_t at_ps, EventFn fn);
  std::uint32_t heap_push(Key key, EventFn fn);
  // Take the root's payload, free its slot and leave the root open for
  // the handler's first push (heap_push fills it) or close_root().
  EventFn open_root();
  void close_root();  // fill the open root with the last element
  void fill_root(Key key, std::uint32_t slot);  // sift-down from the root

  // Heap entries, not counting an open root. Precondition of the top
  // accessors: the root is not open and !queue_empty().
  std::size_t queue_size() const noexcept {
    return heap_slots_.size() - (root_open_ ? 1 : 0);
  }
  bool queue_empty() const noexcept { return queue_size() == 0; }
  Key queue_top_key() const { return heap_keys_.front(); }
  std::uint32_t queue_top_slot() const { return heap_slots_.front(); }

  bool step();  // pop and run one event; false if queue empty
  void retire(std::coroutine_handle<> h);  // process done: reclaim its frame
  void process_failed(std::exception_ptr e);

  // The future-event 4-ary min-heap, split structure-of-arrays style: the
  // sift loops compare and move only 16-byte keys and 4-byte slab slots
  // (100k pending events = 1.6 MB of keys); the 24-byte payloads never
  // move. slab_free_ recycles slots LIFO, so a push usually lands its
  // payload on a cache-warm slab entry. While root_open_ is set, entry 0
  // is a hole left by the running event.
  std::vector<Key> heap_keys_;
  std::vector<std::uint32_t> heap_slots_;
  std::vector<EventFn> slab_;
  std::vector<std::uint32_t> slab_free_;
  bool root_open_ = false;
  // Per-slot seq stamp of the event currently parked there; lets cancel()
  // verify an EventId still names the same scheduling (ABA guard).
  std::vector<std::uint64_t> slab_seq_;
  // Cancelled events still occupying heap entries. step() skips them for
  // free; pending_events() subtracts them.
  std::size_t tombstones_ = 0;
  std::uint64_t events_cancelled_ = 0;
  // FIFO of events at exactly now(): push_back / consume-from-head. The
  // queue fully drains before the clock can advance (its entries are
  // minimal), so head==size resets storage to empty and nothing lingers.
  std::vector<NowEvent> nowq_;
  std::size_t nowq_head_ = 0;
  Time now_;
  // Shadow order tracking: audit builds verify in step() that events pop
  // in strict (time, seq) order — the determinism contract.
  Time audit_last_at_;
  std::uint64_t audit_last_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_limit_ = UINT64_MAX;
  std::int64_t time_limit_ps_ = INT64_MAX;
  std::size_t live_ = 0;
  std::exception_ptr failure_;
  // Live root frames only; finished processes are destroyed eagerly so
  // long runs spawning millions of transient tasks stay flat in memory.
  std::vector<std::coroutine_handle<>> roots_;
};

/// A simulated host CPU context for one process (rank).
///
/// The testbed nodes are dual-CPU and the paper never oversubscribes, so
/// each rank owns a CPU and there is no CPU scheduling to model — a Cpu
/// only advances simulated time and keeps accounting:
///   - compute():  application computation (overlappable with NIC activity)
///   - busy():     host work inside the MPI library ("host overhead")
/// `in_mpi` tells devices whether the host is currently attentive: protocol
/// steps that need host intervention (e.g. the IB/GM rendezvous handshake)
/// are deferred while the rank computes outside MPI.
class Cpu {
 public:
  explicit Cpu(Engine& eng) : eng_(&eng) {}

  /// What `compute` and `busy` return: co_await charges the time to its
  /// account and suspends for it — one event, no coroutine frame. The
  /// charge happens at co_await, not when the awaiter is created.
  class [[nodiscard]] Spend {
   public:
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      *account_ += d_;
      eng_->resume_after(d_, h);
    }
    void await_resume() const noexcept {}

   private:
    friend class Cpu;
    Spend(Engine* eng, Time* account, Time d)
        : eng_(eng), account_(account), d_(d) {}
    Engine* eng_;
    Time* account_;
    Time d_;
  };

  Spend compute(Time d) { return Spend(eng_, &compute_time_, d); }
  Spend busy(Time d) { return Spend(eng_, &overhead_time_, d); }

  /// Account overhead without advancing time: used by event-context
  /// handlers that charge the rank's CPU while it is blocked (the delay is
  /// applied by the handler's own scheduling).
  void accrue_overhead(Time d) { overhead_time_ += d; }

  Time compute_time() const { return compute_time_; }
  Time overhead_time() const { return overhead_time_; }

  bool in_mpi() const { return mpi_depth_ > 0; }
  void enter_mpi() { ++mpi_depth_; }
  void exit_mpi() { --mpi_depth_; }

  Engine& engine() const { return *eng_; }

 private:
  Engine* eng_;
  Time compute_time_;
  Time overhead_time_;
  int mpi_depth_ = 0;
};

/// RAII guard marking "the host is inside an MPI call".
class MpiScope {
 public:
  explicit MpiScope(Cpu& cpu) : cpu_(&cpu) { cpu_->enter_mpi(); }
  ~MpiScope() { cpu_->exit_mpi(); }
  MpiScope(const MpiScope&) = delete;
  MpiScope& operator=(const MpiScope&) = delete;

 private:
  Cpu* cpu_;
};

}  // namespace mns::sim
