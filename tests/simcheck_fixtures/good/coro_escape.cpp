// known-good: every same-frame coroutine-lambda idiom the rule must not
// flag — awaited in place, passed to the synchronous run() driver, named
// and only ever co_awaited — for by-reference and by-value captures alike,
// and a captureless coroutine lambda invoked into spawn(), whose state
// travels as parameters copied into the frame.
#include <cstdint>

#include "fixture_prelude.hpp"

namespace fixgood {

fix::Task awaited_in_place() {
  std::int64_t budget = 100;
  co_await [&]() -> fix::Task {
    budget -= 1;  // safe: the outer frame is suspended, not gone
    co_return;
  }();
}

void run_driver(fix::Engine& eng) {
  std::int64_t budget = 100;
  eng.run([&]() -> fix::Task {
    co_await fix::sleep_ps(10);
    budget -= 1;  // safe: run() drains the engine before returning
  });
}

fix::Task named_and_awaited() {
  std::int64_t budget = 100;
  auto step = [&]() -> fix::Task {
    co_await fix::sleep_ps(10);
    budget -= 1;  // safe: every use of `step` is co_awaited right here
  };
  co_await step();
  co_await step();
}

fix::Task value_capture_awaited_in_place() {
  std::int64_t budget = 100;
  co_await [budget]() -> fix::Task {
    co_await fix::sleep_ps(10);
    (void)budget;  // safe: the closure outlives the awaited frame
  }();
}

void parameters_not_captures(fix::Engine& eng) {
  std::int64_t budget = 100;
  eng.spawn([](std::int64_t b) -> fix::Task {
    co_await fix::sleep_ps(10);
    (void)b;  // safe: a parameter is copied into the coroutine frame
  }(budget));
}

}  // namespace fixgood
