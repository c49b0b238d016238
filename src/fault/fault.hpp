// Deterministic fault injection for the simulated interconnects.
//
// A FaultPlan is a pure value: a seed plus a list of fault specs (packet
// drop/corrupt probabilities on a named link, link flap windows, NIC stall
// intervals, registration-failure probabilities). It contains no mutable
// state and can be copied between sweep points freely.
//
// An Injector is the per-simulation instantiation of a plan: it owns one
// seeded RNG stream per link (and per node for registration failures), so
// the verdict sequence drawn on a link is a pure function of (plan seed,
// link, draw index) — independent of how draws on *other* links interleave.
// That is what makes a faulted simulation deterministic across reruns and
// across --jobs settings: each simulation builds its own Injector, nothing
// is shared, and within one single-threaded simulation the draw order per
// link is the event order, which is itself deterministic.
//
// Hot-path discipline (enforced by tools/simcheck): packet_verdict and
// reg_should_fail allocate nothing and consult only the pre-sized dense
// per-link table built at construction time.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mns::fault {

/// Sentinel for "this permanent failure never happens".
inline constexpr sim::Time kNever =
    sim::Time::ps(std::numeric_limits<std::int64_t>::max());

/// Outcome of one packet's traversal of a faulted link.
enum class Verdict : std::uint8_t {
  kDeliver = 0,
  kDrop = 1,     // packet vanishes at the sender NIC (never enters the switch)
  kCorrupt = 2,  // packet traverses the wire but fails its CRC at the receiver
};

/// Any node / any link wildcard for the spec setters below.
inline constexpr int kAnyNode = -1;

/// "This clause does not set the field" sentinel for LinkFaultSpec. An
/// EXPLICIT 0.0 is different: it participates in precedence, so a
/// specific `drop:0-1:0` carves a clean link out of a wildcard
/// `drop:*:P`.
inline constexpr double kUnsetProb = -1.0;

struct LinkFaultSpec {
  int src = kAnyNode;  // kAnyNode = every source
  int dst = kAnyNode;  // kAnyNode = every destination
  double drop_prob = kUnsetProb;
  double corrupt_prob = kUnsetProb;
};

/// During [from, to) every packet on the link is dropped (a hard outage,
/// drawn without randomness).
struct FlapSpec {
  int src = kAnyNode;
  int dst = kAnyNode;
  sim::Time from;
  sim::Time to;
};

/// At `at`, the node's NIC stops moving data for `duration` (both tx and
/// rx DMA engines stall). Modelled as pipe occupancy, so packets queue
/// behind the stall in FIFO order like behind any other transfer.
struct NicStallSpec {
  int node = 0;
  sim::Time at;
  sim::Time duration;
};

struct RegFailSpec {
  int node = kAnyNode;
  double prob = 0.0;
};

/// Fail-stop link failure: from `at` on, every packet on src->dst vanishes
/// permanently (the link never heals). Unlike flaps there is no recovery
/// window, so recovery protocols eventually exhaust their budgets and the
/// fabric learns the link is dead. Drawn without randomness — a dead-link
/// verdict consumes no RNG draws, so arming a linkdown clause leaves every
/// transient stream (drop/corrupt/regfail) bit-identical.
struct LinkDownSpec {
  int src = kAnyNode;
  int dst = kAnyNode;
  sim::Time at;
};

/// Fail-stop NIC failure: from `at` on, every link touching `node` (both
/// directions) is permanently dead. The node's processes keep running —
/// only its fabric connectivity is gone — which is exactly the scenario
/// that stalls a collective tree on a dead rank.
struct NicDownSpec {
  int node = 0;
  sim::Time at;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  FaultPlan& set_seed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }

  /// Packet-loss probability on link src->dst (kAnyNode wildcards).
  FaultPlan& drop(int src, int dst, double prob);
  /// CRC-corruption probability on link src->dst; corrupt packets consume
  /// wire and receiver bandwidth before being discarded.
  FaultPlan& corrupt(int src, int dst, double prob);
  /// Hard outage window on link src->dst.
  FaultPlan& flap(int src, int dst, sim::Time from, sim::Time to);
  /// NIC DMA stall: node's tx+rx pipes busy for [at, at+duration).
  FaultPlan& nic_stall(int node, sim::Time at, sim::Time duration);
  /// Memory-registration failure probability on a node's regcache.
  FaultPlan& reg_fail(int node, double prob);
  /// Permanent fail-stop link failure from `at` on (kAnyNode wildcards).
  FaultPlan& link_down(int src, int dst, sim::Time at);
  /// Permanent fail-stop NIC failure: all links touching `node` die at `at`.
  FaultPlan& nic_down(int node, sim::Time at);

  bool empty() const {
    return links_.empty() && flaps_.empty() && stalls_.empty() &&
           reg_fails_.empty() && link_downs_.empty() && nic_downs_.empty();
  }
  /// True if the plan contains any permanent (fail-stop) failure clause.
  /// A static property of the plan — used to gate the collective
  /// error-agreement epilogue so transient-only plans stay bit-identical.
  bool has_fail_stop() const {
    return !link_downs_.empty() || !nic_downs_.empty();
  }
  std::uint64_t seed() const { return seed_; }

  const std::vector<LinkFaultSpec>& links() const { return links_; }
  const std::vector<FlapSpec>& flaps() const { return flaps_; }
  const std::vector<NicStallSpec>& stalls() const { return stalls_; }
  const std::vector<RegFailSpec>& reg_fails() const { return reg_fails_; }
  const std::vector<LinkDownSpec>& link_downs() const { return link_downs_; }
  const std::vector<NicDownSpec>& nic_downs() const { return nic_downs_; }

  /// Parse a --faults= spec. Grammar (clauses separated by ';' or ','):
  ///   seed:N
  ///   drop:SRC-DST:PROB        drop:*:PROB      drop:SRC-*:PROB  drop:*-DST:PROB
  ///   corrupt:SRC-DST:PROB     corrupt:*:PROB   (same per-side wildcards)
  ///   flap:SRC-DST:FROM_US:TO_US
  ///   stall:NODE:AT_US:DUR_US
  ///   regfail:NODE:PROB        regfail:*:PROB
  ///   linkdown:SRC-DST:AT_US   linkdown:*:AT_US (permanent, fail-stop)
  ///   nicdown:NODE:AT_US       (permanent, all links touching NODE)
  /// Example: "seed:42;drop:*:0.01;flap:0-1:100:250;linkdown:2-5:80".
  ///
  /// Precedence for overlapping clauses: a more specific clause beats a
  /// less specific one regardless of order — exact SRC-DST beats one-sided
  /// wildcards (SRC-* / *-DST), which beat the full wildcard (*). Among
  /// clauses of equal specificity the last one written wins. Fail-stop
  /// clauses compose differently: overlapping linkdown/nicdown take the
  /// EARLIEST down time (a link cannot die twice).
  /// Throws std::invalid_argument with a message naming the bad clause.
  static FaultPlan parse(const std::string& spec);

 private:
  std::uint64_t seed_ = 1;
  std::vector<LinkFaultSpec> links_;
  std::vector<FlapSpec> flaps_;
  std::vector<NicStallSpec> stalls_;
  std::vector<RegFailSpec> reg_fails_;
  std::vector<LinkDownSpec> link_downs_;
  std::vector<NicDownSpec> nic_downs_;
};

/// Per-simulation instantiation of a FaultPlan over `nodes` nodes: dense
/// per-link fault table plus one independent RNG stream per link/node.
class Injector {
 public:
  Injector(const FaultPlan& plan, std::size_t nodes);

  /// True if any fault (drop, corrupt, flap or permanent down) is
  /// configured on the link, at any time. Pure — the fabric decides once
  /// per message whether the flow consults the per-packet verdicts.
  bool link_armed(int src, int dst) const {
    if (src == dst) return false;  // loopback bypasses the wire
    const Link& l = link(src, dst);
    return l.drop > 0.0 || l.corrupt > 0.0 || l.flap_from < l.flap_to ||
           l.down_at != kNever;
  }

  /// Draw the fate of one packet crossing src->dst at time `now`.
  /// Permanent downs and flap windows are checked first (no randomness
  /// consumed, so arming them perturbs no transient stream); probabilistic
  /// drop/corrupt share a single uniform draw per packet.
  Verdict packet_verdict(int src, int dst, sim::Time now) {
    Link& l = link(src, dst);
    if (now >= l.down_at) return Verdict::kDrop;  // fail-stop: dead link
    if (l.flap_from < l.flap_to && now >= l.flap_from && now < l.flap_to) {
      return Verdict::kDrop;
    }
    if (l.drop <= 0.0 && l.corrupt <= 0.0) return Verdict::kDeliver;
    const double u = l.rng.uniform();
    if (u < l.drop) return Verdict::kDrop;
    if (u < l.drop + l.corrupt) return Verdict::kCorrupt;
    return Verdict::kDeliver;
  }

  /// The instant link src->dst dies permanently (kNever if it doesn't).
  /// Pure — the fabric consults this when a retry budget exhausts, to
  /// distinguish "transient storm lost the race" from "the component is
  /// dead" and trigger its degradation protocol only for the latter.
  sim::Time link_down_at(int src, int dst) const {
    if (src == dst) return kNever;
    return link(src, dst).down_at;
  }

  /// True once the link is permanently dead at `now`.
  bool link_dead(int src, int dst, sim::Time now) const {
    return now >= link_down_at(src, dst);
  }

  bool reg_armed(int node) const { return reg_[idx(node)].prob > 0.0; }
  bool reg_should_fail(int node) {
    Reg& r = reg_[idx(node)];
    return r.prob > 0.0 && r.rng.uniform() < r.prob;
  }

  const std::vector<NicStallSpec>& nic_stalls() const { return stalls_; }
  std::size_t nodes() const { return nodes_; }

 private:
  struct Link {
    double drop = 0.0;
    double corrupt = 0.0;
    sim::Time flap_from;
    sim::Time flap_to;
    sim::Time down_at = kNever;  // fail-stop instant (kNever = healthy)
    util::Rng rng{0};  // reseeded per link in the constructor
  };
  struct Reg {
    double prob = 0.0;
    util::Rng rng{0};
  };

  std::size_t idx(int node) const { return static_cast<std::size_t>(node); }
  Link& link(int src, int dst) { return links_[idx(src) * nodes_ + idx(dst)]; }
  const Link& link(int src, int dst) const {
    return links_[idx(src) * nodes_ + idx(dst)];
  }

  std::size_t nodes_;
  std::vector<Link> links_;
  std::vector<Reg> reg_;
  std::vector<NicStallSpec> stalls_;
};

}  // namespace mns::fault
