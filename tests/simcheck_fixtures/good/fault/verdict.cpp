// known-good: an allocation-free verdict under fault/, drawing from a
// hand-rolled counter-based generator sized at construction.
#include <array>
#include <cstddef>
#include <cstdint>

namespace fixgood {

struct Injector {
  std::array<std::uint64_t, 4> streams{};
  std::uint64_t new_draws = 0;

  bool packet_verdict(int link, std::uint64_t threshold) {
    std::uint64_t x = streams[static_cast<std::size_t>(link)] +=
        0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    ++new_draws;
    return (x >> 11) < threshold;
  }
};

}  // namespace fixgood
