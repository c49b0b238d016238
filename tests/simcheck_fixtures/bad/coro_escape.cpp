// known-bad: coroutine lambdas that capture by reference and escape
// their enclosing frame — one via spawn(), one stored in a local
// container and handed on later. The lambda object dies when its
// function returns; the coroutine frame built from it lives on — the
// captured reference dangles at the first suspension point.
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

}  // namespace fixbad
