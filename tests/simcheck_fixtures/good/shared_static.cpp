// known-good: every static here is either immutable after init,
// per-thread (reported as info, not an error), or explicitly
// simcheck-allow'd with the allow on the line ABOVE the declaration —
// which also pins the line-above suppression semantics.
#include <cstdint>

#include "fixture_prelude.hpp"

namespace fixgood {

constexpr std::uint64_t kTickPs = 1000;             // OK: constexpr
const std::uint64_t kWindow = kTickPs * 8;          // OK: const

thread_local std::uint64_t t_scratch = 0;           // info only: per-thread

// simcheck-allow: shared-static
std::uint64_t g_debug_poke_count = 0;               // allowed above

struct Dispatcher {
  std::uint64_t handled = 0;                        // member, not static

  void step_event() {
    handled += 1;
    t_scratch += 1;
  }
};

}  // namespace fixgood
