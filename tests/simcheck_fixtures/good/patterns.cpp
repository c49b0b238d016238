// known-good: look-alikes the pattern rules must not flag, and one
// justified use blessed by an allow comment on the line above.
//
// Comments and literals are stripped first, so prose may name
// std::chrono::steady_clock, rand(), std::cout or std::thread freely.
#include <cstdio>
#include <memory>

namespace fixgood {

constexpr const char* kUsage = "usage: printf(time(0)) std::mutex";

long runtime(long t) { return t; }
int operand(int x) { return x; }

// Allocation is banned only under fault/ and model/.
std::shared_ptr<int> make_counter() { return std::make_shared<int>(0); }

void fatal(const char* what) {
  // simcheck-allow: stdout (the CLI's one diagnostic line)
  std::fprintf(stderr, "error: %s\n", what);
}

}  // namespace fixgood
