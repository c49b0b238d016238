// Lazy coroutine task with continuation chaining.
//
// Every simulated process (an MPI rank, a NIC firmware thread, a benchmark
// driver) is a tree of Task<> coroutines scheduled by sim::Engine. A Task is
// lazy: it runs only when co_awaited (or spawned as a process root), and on
// completion transfers control back to its awaiter via symmetric transfer,
// so arbitrarily deep call chains use O(1) stack.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "audit/audit.hpp"
#include "sim/frame_pool.hpp"

namespace mns::sim {

namespace detail {

// PromiseBase inherits PoolAllocated, so every Task<T> coroutine frame is
// carved from the per-thread frame pool instead of the global allocator —
// the millions of transient MPI-call and channel tasks a skeleton run
// spawns become freelist pops.
struct PromiseBase : frame_pool::PoolAllocated {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr error;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      return h.promise().continuation;
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

template <class T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    bool await_ready() const noexcept(!audit::kEnabled) {
      MNS_AUDIT(h, "co_await on a moved-from/empty Task");
      MNS_AUDIT(!h.done(), "Task co_awaited more than once");
      return false;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().continuation = cont;
      return h;  // start the child coroutine
    }
    T await_resume() {
      if (h.promise().error) std::rethrow_exception(h.promise().error);
      return std::move(h.promise().value);
    }
  };
  Awaiter operator co_await() const& noexcept { return Awaiter{h_}; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) h_.destroy();
    h_ = {};
  }
  friend class Engine;
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    bool await_ready() const noexcept(!audit::kEnabled) {
      MNS_AUDIT(h, "co_await on a moved-from/empty Task");
      MNS_AUDIT(!h.done(), "Task co_awaited more than once");
      return false;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().continuation = cont;
      return h;
    }
    void await_resume() {
      if (h.promise().error) std::rethrow_exception(h.promise().error);
    }
  };
  Awaiter operator co_await() const& noexcept { return Awaiter{h_}; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) h_.destroy();
    h_ = {};
  }
  friend class Engine;
  std::coroutine_handle<promise_type> h_;
};

}  // namespace mns::sim
