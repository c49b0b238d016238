// known-bad: capturing coroutine lambdas that escape their enclosing
// frame — by reference via spawn(), by reference stored in a local
// container and handed on later, and by value, both handed to spawn() and
// invoked into it. Captures live in the closure object, not in the
// coroutine frame: the closure dies when its function (or full-expression)
// ends, the frame lives on, and the capture dangles at the first
// suspension point whether it was taken by reference or by value.
#include <cstdint>
#include <functional>
#include <vector>

#include "fixture_prelude.hpp"

namespace fixbad {

void start(fix::Engine& eng) {
  std::int64_t local_budget = 100;
  eng.spawn([&]() -> fix::Task {
    co_await fix::sleep_ps(10);
    local_budget -= 1;  // dangling: start() has long returned
  });
}

void queue_for_later(fix::Engine& eng) {
  std::int64_t local_budget = 100;
  std::vector<std::function<fix::Task()>> pending;
  pending.push_back([&]() -> fix::Task {
    co_await fix::sleep_ps(10);
    local_budget -= 1;  // dangling: queue_for_later() has returned
  });
  for (auto& job : pending) eng.spawn(job);
}

void value_capture(fix::Engine& eng) {
  std::int64_t budget = 100;
  eng.spawn([budget]() -> fix::Task {
    co_await fix::sleep_ps(10);
    (void)budget;  // dangling: the copy lives in the closure, not the frame
  });
}

void value_capture_invoked(fix::Engine& eng) {
  std::int64_t budget = 100;
  eng.spawn([budget]() -> fix::Task {
    co_await fix::sleep_ps(10);
    (void)budget;  // dangling: the temporary closure died after spawn()
  }());
}

}  // namespace fixbad
