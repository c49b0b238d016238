// known-bad: type-erased and shared allocation on a data path under
// model/. Directory gating: make_shared is also a fault-alloc construct,
// but this file is not under `fault/`, so only model-alloc fires.
#include <functional>
#include <memory>

namespace fixbad {

struct Flow {
  std::function<void()> on_done;
};

void post(int bytes) {
  auto flow = std::make_shared<Flow>();
  (void)bytes;
}

}  // namespace fixbad
