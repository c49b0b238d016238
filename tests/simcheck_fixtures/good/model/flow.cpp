// known-good: model/ bans make_shared and std::function, not every
// allocation; a per-message callback carries a justified allow.
#include <functional>
#include <memory>

namespace fixgood {

struct Slab {
  int flows[64];
};

struct Fabric {
  std::unique_ptr<Slab> slab = std::make_unique<Slab>();
  // simcheck-allow: model-alloc (per-message completion callback)
  std::function<void()> on_complete;
};

}  // namespace fixgood
