// known-good: threads are legal under a sweep/ directory, the one place
// that runs independent simulations in parallel.
#include <thread>
#include <vector>

namespace fixgood {

void fan_out(int n) {
  std::vector<std::thread> pool;
  for (int i = 0; i < n; ++i) pool.emplace_back([] {});
  for (auto& t : pool) t.join();
}

}  // namespace fixgood
