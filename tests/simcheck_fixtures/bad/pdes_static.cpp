// known-bad: mutable statics shared across engines. Simulations running
// concurrently on SweepRunner (--jobs) threads would race on them or
// silently diverge; the audit reports each one with the handlers that
// reach it.
#include <cstdint>

#include "fixture_prelude.hpp"

namespace fixbad {

std::uint64_t g_event_count = 0;        // BAD: mutable namespace scope

struct Dispatcher {
  // Reaches g_event_count — listed in the handler's reached_by set when
  // step_event is configured as a hot root.
  void step_event() {
    g_event_count += 1;
    bump_local();
  }

  void bump_local() {
    static std::uint64_t calls = 0;     // BAD: mutable function-local
    calls += 1;
  }
};

// Mutable and shared, but no event handler reaches it: inventory +
// advisory note only — it must NOT gate until a handler path touches it.
std::uint64_t g_offline_tally = 0;

void offline_report() { g_offline_tally += 1; }

}  // namespace fixbad
