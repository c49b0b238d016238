// known-bad: host nondeterminism in library code, one construct per
// ungated pattern rule. Each flagged line carries exactly one finding.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace fixbad {

long host_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

int host_dice() { return rand() % 6; }

void report(int v) { std::printf("%d\n", v); }

int guarded(int v) {
  std::mutex m;
  return v;
}

}  // namespace fixbad
