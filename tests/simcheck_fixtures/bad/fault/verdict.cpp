// known-bad: a per-packet verdict path under fault/ that allocates and
// draws from a <random> engine, whose distributions differ between
// standard libraries. Directory gating: only files under a `fault/`
// directory carry the fault-alloc rule.
#include <memory>
#include <random>

namespace fixbad {

struct Verdict {
  bool drop = false;
};

bool packet_verdict(double p, unsigned seed) {
  std::mt19937 gen(seed);
  auto v = std::make_unique<Verdict>();
  v->drop = static_cast<double>(gen() % 1000) < p * 1000.0;
  return v->drop;
}

}  // namespace fixbad
