#include "model/netfabric.hpp"

#include <algorithm>
#include <bit>
#include <coroutine>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/report.hpp"
#include "util/annotations.hpp"

namespace mns::model {

// ---------------------------------------------------------------------------
// MsgFlow: the pooled per-message packet state machine.
//
// One MsgFlow drives one message through the historical packet event
// sequence — fetch (host bus) -> launch -> tx -> [staging] -> switch hops
// -> [staging] -> rx (first packet: stall/setup) -> host bus -> deliver —
// using raw EventFn continuations instead of per-packet coroutine frames.
// Each event word packs (stage kind, packet index); the flow object holds
// everything a packet_tail coroutine used to capture, and is recycled
// through a freelist once delivered (audited empty-at-finalize).
//
// Express mode: the whole trajectory is applied to the pipes in one
// closed-form replay at launch (replay_flow(materialize=false)); only the
// three terminal events (kExFetch / kExLocal / kExDeliver) are scheduled,
// and every touched pipe carries a claim. A competing reservation inside
// the claimed window demotes the flow: pipes are rolled back to their
// pre-claim snapshots and replay_flow(materialize=true) re-applies history
// up to now() and schedules real packet-machine events for the remainder —
// bit-identical timing to having run at packet granularity all along.
// ---------------------------------------------------------------------------
struct NetFabric::MsgFlow final : Pipe::ClaimOwner {
  explicit MsgFlow(NetFabric& fab) : fab_(&fab) {}

  NetFabric* fab_;
  NetMsg msg;
  std::uint64_t chunk = 0;
  std::uint64_t packets = 0;

  bool in_use = false;  // acquired from the slab, not on the free list

  // Packet-machine counters (mirroring the former MsgState).
  std::uint64_t packets_left_tx = 0;
  std::uint64_t packets_left = 0;
  bool first_packet = true;

  // Recovery-machine state (all dormant unless `faulted`). The chunk plan
  // caps messages at 64 packets, so one word of bits identifies the lost /
  // corrupt-marked packets of the current attempt exactly.
  bool faulted = false;       // fault plan arms this flow's link
  bool fetching = false;      // sender_loop's closed fetch loop still running
  bool rto_armed = false;     // retransmit timer pending
  std::uint64_t lost = 0;     // packets lost this attempt (bit per packet)
  std::uint64_t corrupt_mask = 0;  // marked at tx, detected+lost at rx
  std::uint64_t resend_mask = 0;   // packets a scheduled kResendBatch owes
  std::uint32_t pending = 0;  // packet-machine events currently scheduled
  int attempts = 0;           // resend rounds consumed
  sim::EventId rto_id{};      // cancellable retransmit timer

  // Path, resolved once at launch (hooks are pure per message).
  Pipe* src_bus = nullptr;
  Pipe* tx = nullptr;
  Pipe* stage_src = nullptr;
  Pipe* hops[SwitchTopology::kMaxHops] = {};
  int nhops = 0;
  Pipe* stage_dst = nullptr;
  Pipe* nic_rx_proc = nullptr;  // shared protocol processor, rx side
  Pipe* rx = nullptr;
  Pipe* dst_bus = nullptr;

  // Express-path state.
  bool express = false;
  bool demoted = false;
  bool local_fired = false;      // eager local_complete already delivered
  bool delivered_done = false;
  bool ex_fetch_fired = false;
  bool ex_local_scheduled = false;
  bool ex_local_fired = false;
  bool ex_arm_fired = false;
  bool replay_deferred = false;  // demoted before the arm; arm restarts
  int stale_events = 0;          // scheduled express events now obsolete
  sim::Time launch_time;
  std::coroutine_handle<> sender;  // sender_loop parked on the fetch gate

  struct ClaimRec {
    Pipe* pipe;
    Pipe::State snap;     // pre-claim state, restored on demotion
    std::uint64_t epoch;  // pipe epoch right after the bulk apply
  };
  std::vector<ClaimRec> claims;  // capacity persists across recycles
  sim::Time ex_deliver;  // express delivery instant (claim expiry)

  MsgFlow* next_free = nullptr;

  // Completion-event kinds; the event word is kind | (packet << 8).
  enum Kind : std::uint8_t {
    kFetch,     // host-bus fetch done (post-demotion closed loop only)
    kLaunch,    // zero-delay launch after fetch (mirrors the old spawn)
    kTx,        // sender NIC injection done
    kSrcStage,  // source staging done
    kHop0,      // switching stage hops
    kHop1,
    kHop2,
    kDstStage,  // destination staging done
    kRxProc,    // shared-processor rx setup done
    kRx,        // receiver NIC delivery done
    kBus,       // destination host-bus DMA done
    kExFetch,   // express: last fetch done -> wake sender
    kExLocal,   // express: last byte left sender NIC -> eager completion
    kExDeliver, // express: last byte in remote memory
    kExArm,     // express: packet-0 fetch instant (demotion re-entry point)
    kRto,       // recovery: retransmission timeout fired
    // One fused relaunch for a whole resend round (resend_mask holds the
    // packets). Replaces the contiguous block of same-instant kLaunch
    // events a round used to schedule: the block occupied consecutive
    // now-queue slots with nothing interleaved, so collapsing it into a
    // single event that launches in the same ascending-packet order
    // preserves the relative order of every event in the run.
    kResendBatch
  };

  static void* word(std::uint8_t kind, std::uint64_t p) {
    return reinterpret_cast<void*>(static_cast<std::uintptr_t>(kind) |
                                   (p << 8));
  }
  static void thunk(void* a, void* b) {
    auto* f = static_cast<MsgFlow*>(a);
    f->fab_->flow_step(*f, reinterpret_cast<std::uintptr_t>(b));
  }

  void claim_broken() override { fab_->demote(*this); }

  std::uint64_t pkt_bytes(std::uint64_t p) const {
    if (msg.bytes == 0) return 0;
    return p + 1 < packets ? chunk : msg.bytes - chunk * (packets - 1);
  }

  /// Awaited by sender_loop while an express flow owns the fetch chain;
  /// resumed inside the last fetch-completion event, exactly where the
  /// closed-loop `co_await bus.dma(...)` used to resume it.
  struct FetchGate {
    MsgFlow& f;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { f.sender = h; }
    void await_resume() const noexcept {}
  };
};

NetFabric::NetFabric(sim::Engine& eng, std::vector<NodeHw*> nodes,
                     const SwitchConfig& sw, const NicConfig& nic)
    : eng_(&eng), nodes_(std::move(nodes)), nic_(nic) {
  const std::size_t n = nodes_.size();
  if (sw.fat_tree_radix > 0 && sw.fat_tree_radix < n) {
    topo_ = std::make_unique<FatTree>(eng, sw, n, sw.fat_tree_radix);
  } else {
    topo_ = std::make_unique<SingleCrossbar>(eng, sw);
  }
  tx_.reserve(n);
  rx_.reserve(n);
  sendq_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tx_.push_back(
        std::make_unique<Pipe>(eng, nic_.tx_rate, nic_.tx_wire_latency));
    rx_.push_back(std::make_unique<Pipe>(eng, nic_.rx_rate, nic_.rx_fixed));
    // Rate is irrelevant for the protocol processor: it only serializes
    // per-message occupancies.
    nic_proc_.push_back(std::make_unique<Pipe>(eng, 1e12));
    sendq_.push_back(std::make_unique<sim::Mailbox<NetMsg>>(eng));
  }
  for (std::size_t i = 0; i < n; ++i) {
    eng.spawn(sender_loop(static_cast<int>(i)), /*daemon=*/true);
  }
}

NetFabric::~NetFabric() = default;

void NetFabric::run_on_node(int src_node, int dst_node,
                            // simlint-allow: model-alloc (error path only)
                            std::function<void()> fn) {
  if (fail_stop_armed_ && src_node != dst_node &&
      error_notify_delay_ > sim::Time::zero()) {
    // Cross-node error notification under a fail-stop plan: it crosses
    // the wire, so it lands error_notify_delay() later (see the header).
    // Same-node calls stay inline — nothing crosses a wire.
    eng_->at(eng_->now() + error_notify_delay_,
             sim::EventFn::make(std::move(fn)));
    return;
  }
  fn();
}

void NetFabric::post(NetMsg msg) {
  ++posted_;
  on_posted(msg);
  sendq_[static_cast<std::size_t>(msg.src)]->send(std::move(msg));
}

sim::Time NetFabric::tx_setup(const NetMsg&) { return nic_.per_msg_setup; }
sim::Time NetFabric::tx_stall(const NetMsg&) { return sim::Time::zero(); }
sim::Time NetFabric::rx_stall(const NetMsg&) { return sim::Time::zero(); }
Pipe* NetFabric::staging_pipe(int, const NetMsg&) { return nullptr; }
void NetFabric::on_posted(const NetMsg&) {}
void NetFabric::on_delivered(const NetMsg&) {}
void NetFabric::on_aborted(const NetMsg&) {}
bool NetFabric::express_rx_ok(const NetMsg&) const { return true; }
void NetFabric::on_link_failed(int, int) {}
sim::Time NetFabric::degrade_delay(const NetMsg&, int) const {
  return sim::Time::zero();
}

void NetFabric::learn_link_dead(int src, int dst) {
  // The registry was pre-sized by set_fault_plan (fail-stop plans only),
  // so this path never allocates.
  const std::size_t li = link_index(src, dst);
  if (dead_[li] != 0) return;  // already attributed by an earlier flow
  dead_[li] = 1;
  on_link_failed(src, dst);
}

// MNS_HOT: degraded-path terminator — counter bumps and callbacks only,
// no allocation, no flow slab traffic.
MNS_HOT void NetFabric::abort_degraded(NetMsg msg) {
  ++aborted_;
  on_aborted(msg);
  if (msg.on_failed) msg.on_failed();
}

bool NetFabric::link_known_dead(int src, int dst) const {
  return !dead_.empty() && dead_[link_index(src, dst)] != 0;
}

std::uint64_t NetFabric::links_failed() const {
  std::uint64_t n = 0;
  for (const std::uint8_t b : dead_) n += b;
  return n;
}

std::uint64_t NetFabric::degrade_rounds() const {
  std::uint64_t n = 0;
  for (const std::uint32_t r : degrade_round_) n += r;
  return n;
}

std::string NetFabric::progress_report() const {
  // Watchdog diagnostic: enough state to see *where* forward progress
  // stopped — message counters, flows still holding slab entries (with
  // their stage bits), and send-queue depths.
  std::string r = "netfabric progress report\n";
  r += "  posted=" + std::to_string(posted_) +
       " delivered=" + std::to_string(delivered_) +
       " errored=" + std::to_string(errored_) +
       " aborted=" + std::to_string(aborted_) + "\n";
  if (flows_active_ > 0) {
    r += "  flows_active=" + std::to_string(flows_active_) + "\n";
    for (const auto& fp : slab_) {
      const MsgFlow& f = *fp;
      // Every acquired flow is a flow that has not terminated — exactly
      // the set the watchdog wants on record (a flow mid-RTO-handler has
      // no pending events and no armed timer, but it still holds its
      // slab entry).
      if (!f.in_use) continue;
      r += "    flow " + std::to_string(f.msg.src) + "->" +
           std::to_string(f.msg.dst) + " bytes=" +
           std::to_string(f.msg.bytes) + " attempts=" +
           std::to_string(f.attempts) + " pending=" +
           std::to_string(f.pending) + (f.rto_armed ? " rto" : "") +
           (f.fetching ? " fetching" : "") + "\n";
    }
  }
  return r;
}

NetFabric::ChunkPlan NetFabric::chunk_plan(std::uint64_t bytes,
                                           std::uint32_t mtu) {
  const std::uint64_t chunk = std::max<std::uint64_t>(mtu, (bytes + 63) / 64);
  return {chunk, bytes == 0 ? 1 : (bytes + chunk - 1) / chunk};
}

// MNS_HOT: slab push_back is pool warm-up only — a released flow goes on
// the free list and steady state never allocates.
MNS_HOT NetFabric::MsgFlow* NetFabric::acquire_flow() {
  ++flows_active_;
  if (free_list_ != nullptr) {
    MsgFlow* f = free_list_;
    free_list_ = f->next_free;
    f->next_free = nullptr;
    f->in_use = true;
    return f;
  }
  slab_.push_back(std::make_unique<MsgFlow>(*this));
  slab_.back()->in_use = true;
  return slab_.back().get();
}

void NetFabric::release_flow(MsgFlow& f) {
  MNS_AUDIT(flows_active_ > 0, "flow released with none active");
  MNS_AUDIT(f.pending == 0 && !f.rto_armed,
            "flow released with packet events or a retransmit timer live");
  --flows_active_;
  f.in_use = false;
  f.msg = NetMsg{};  // drop per-message closures eagerly
  f.claims.clear();
  f.sender = {};
  f.next_free = free_list_;
  free_list_ = &f;
}

void NetFabric::maybe_release(MsgFlow& f) {
  if (f.delivered_done && f.stale_events == 0) release_flow(f);
}

void NetFabric::init_flow(MsgFlow& f, NetMsg msg) {
  f.msg = std::move(msg);
  const ChunkPlan plan = chunk_plan(f.msg.bytes, nic_.mtu);
  f.chunk = plan.chunk;
  f.packets = plan.packets;
  f.packets_left_tx = plan.packets;
  f.packets_left = plan.packets;
  f.first_packet = true;
  f.express = false;
  f.demoted = false;
  f.local_fired = false;
  f.delivered_done = false;
  f.ex_fetch_fired = false;
  f.ex_local_scheduled = false;
  f.ex_local_fired = false;
  f.ex_arm_fired = false;
  f.replay_deferred = false;
  f.stale_events = 0;
  f.sender = {};
  f.fetching = false;
  f.rto_armed = false;
  f.lost = 0;
  f.corrupt_mask = 0;
  f.resend_mask = 0;
  f.pending = 0;
  f.attempts = 0;

  const int src = f.msg.src;
  const int dst = f.msg.dst;
  f.faulted = injector_ != nullptr && injector_->link_armed(src, dst);
  f.src_bus = &nodes_[static_cast<std::size_t>(src)]->bus().pipe();
  f.tx = tx_[static_cast<std::size_t>(src)].get();
  f.stage_src = staging_pipe(src, f.msg);
  f.nhops = src != dst ? topo_->hops(src, dst, f.hops) : 0;
  f.stage_dst = staging_pipe(dst, f.msg);
  f.nic_rx_proc =
      nic_.shared_processor ? nic_proc_[static_cast<std::size_t>(dst)].get()
                            : nullptr;
  f.rx = rx_[static_cast<std::size_t>(dst)].get();
  f.dst_bus = &nodes_[static_cast<std::size_t>(dst)]->bus().pipe();

  f.claims.clear();
  auto add = [&f](Pipe* p) {
    if (p == nullptr) return;
    for (const auto& rec : f.claims) {
      if (rec.pipe == p) return;
    }
    f.claims.push_back({p, {}, 0});
  };
  add(f.src_bus);
  add(f.tx);
  add(f.stage_src);
  for (int h = 0; h < f.nhops; ++h) add(f.hops[h]);
  add(f.stage_dst);
  add(f.nic_rx_proc);
  add(f.rx);
  add(f.dst_bus);
}

bool NetFabric::can_express(const MsgFlow& f) {
  if (!express_enabled_) return false;
  // A faulted packet must run the packet machine (per-packet verdicts and
  // retransmissions have no closed form), so flows on an armed link are
  // vetoed up front — link_armed is pure, keeping the decision
  // time-independent and deterministic.
  if (f.faulted) return false;
  // Loopback skips the switch and may hit the same pipes twice in one
  // chain; not worth proving exclusivity for.
  if (f.msg.src == f.msg.dst) return false;
  // The fabric's rx-side stall must be computable at launch.
  if (!express_rx_ok(f.msg)) return false;
  for (const auto& rec : f.claims) {
    if (rec.pipe->claim_active()) return false;
  }
  return true;
}

sim::Task<void> NetFabric::sender_loop(int node_id) {
  auto& queue = *sendq_[static_cast<std::size_t>(node_id)];
  auto& bus = nodes_[static_cast<std::size_t>(node_id)]->bus();
  sim::Engine& eng = *eng_;
  for (;;) {
    NetMsg msg = co_await queue.receive();
    if (fail_stop_armed_) {
      // Degradation fast path: once a retry exhaustion has been
      // attributed to a permanent failure (learn_link_dead), subsequent
      // messages on the dead link do not re-run the whole retry cycle.
      // They pay the fabric's bounded degradation cost (IB reconnect
      // backoff, GM route probe, Elan escalation) and terminate as
      // `aborted` — delivered-or-errored holds for every flow, and the
      // sender NIC is freed for healthy traffic instead of burning its
      // protocol processor on a dead peer.
      const std::size_t li = link_index(msg.src, msg.dst);
      if (!dead_.empty() && dead_[li] != 0) {
        const std::uint32_t round = ++degrade_round_[li];
        const sim::Time d = degrade_delay(msg, static_cast<int>(round));
        if (d > sim::Time::zero()) co_await eng.delay(d);
        abort_degraded(std::move(msg));
        continue;
      }
    }
    if (nic_.shared_processor) {
      // One protocol processor handles send and receive events: the
      // per-message send work competes with incoming-message work.
      co_await nic_proc_[static_cast<std::size_t>(node_id)]->occupy(
          tx_setup(msg));
    } else {
      co_await eng.delay(tx_setup(msg));
    }
    const sim::Time stall = tx_stall(msg);
    if (stall > sim::Time::zero()) {
      co_await tx_pipe(node_id).occupy(stall);
    }

    MsgFlow* flow = acquire_flow();
    init_flow(*flow, std::move(msg));
    if (can_express(*flow) && express_launch(*flow)) {
      // The express replay owns the fetch chain; park until the last
      // fetch completes (kExFetch, or the post-demotion kFetch chain).
      co_await MsgFlow::FetchGate{*flow};
    } else {
      // Closed-loop injection: each packet is fetched across the host bus
      // before the next, so concurrent senders on this node interleave at
      // packet granularity and per-pair ordering is preserved.
      MsgFlow& f = *flow;
      f.fetching = true;  // retransmit timers wait for the fetch chain
      for (std::uint64_t p = 0; p < f.packets; ++p) {
        co_await bus.dma(f.pkt_bytes(p));
        // Launch through the event queue at now, exactly where the old
        // per-packet coroutine spawn started.
        ++f.pending;
        eng.at(eng.now(), sim::EventFn(&MsgFlow::thunk, &f,
                                       MsgFlow::word(MsgFlow::kLaunch, p)));
      }
      f.fetching = false;
    }
    // `flow` may already be recycled past this point; never touch it here.
  }
}

void NetFabric::flow_step(MsgFlow& f, std::uintptr_t w) {
  const auto kind = static_cast<std::uint8_t>(w & 0xffu);
  const std::uint64_t p = w >> 8;
  const std::uint64_t pkt = f.pkt_bytes(p);

  if (kind <= MsgFlow::kBus) {
    // Packet-machine event landed; the retransmit timer counts these to
    // know when a resend round has fully drained.
    MNS_AUDIT(f.pending > 0, "packet event fired with zero pending");
    --f.pending;
  }

  auto sched = [&](std::uint8_t k, std::uint64_t pp, sim::Time t) {
    if (k <= MsgFlow::kBus) ++f.pending;
    eng_->at(t, sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(k, pp)));
  };

  // Stage chaining shared by several completion events below; each helper
  // performs the next reservation and schedules its completion event.
  auto enter_rx = [&] {
    if (f.first_packet) {
      f.first_packet = false;
      const sim::Time stall = rx_stall(f.msg) + nic_.per_msg_rx_setup;
      if (f.nic_rx_proc != nullptr) {
        // Receive-side per-message work runs on the shared protocol
        // processor (contending with sends), then the data crosses rx.
        sched(MsgFlow::kRxProc, p, f.nic_rx_proc->reserve_after(stall, 0));
      } else {
        // Stall + first-packet data as one atomic reservation, so packets
        // of other messages cannot be reordered into the gap.
        sched(MsgFlow::kRx, p, f.rx->reserve_after(stall, pkt));
      }
    } else {
      sched(MsgFlow::kRx, p, f.rx->reserve(pkt));
    }
  };
  auto enter_dst = [&] {
    if (f.stage_dst != nullptr) {
      sched(MsgFlow::kDstStage, p, f.stage_dst->reserve(pkt));
    } else {
      enter_rx();
    }
  };
  auto enter_switch = [&] {
    if (f.nhops > 0) {
      sched(MsgFlow::kHop0, p, f.hops[0]->reserve(pkt));
    } else {
      enter_dst();
    }
  };

  switch (kind) {
    case MsgFlow::kFetch: {
      // Post-demotion closed loop: launch this packet, fetch the next.
      sched(MsgFlow::kLaunch, p, eng_->now());
      if (p + 1 < f.packets) {
        sched(MsgFlow::kFetch, p + 1, f.src_bus->reserve(f.pkt_bytes(p + 1)));
      } else {
        // Sender resumes inside the last fetch-completion event, like the
        // coroutine fetch loop it replaces.
        auto h = std::exchange(f.sender, std::coroutine_handle<>{});
        if (h) h.resume();
      }
      break;
    }
    case MsgFlow::kLaunch:
      sched(MsgFlow::kTx, p, f.tx->reserve(pkt));
      break;
    case MsgFlow::kTx:
      if (--f.packets_left_tx == 0) {
        // Last byte has left the sender NIC: eager sends complete here.
        // (Fabric-level retransmissions below are invisible to the host,
        // like a real NIC's reliability engine.)
        if (!f.msg.complete_on_delivery && f.msg.local_complete &&
            !f.local_fired) {
          f.local_fired = true;
          f.msg.local_complete();
        }
      }
      if (f.faulted) {
        // The packet has consumed injection bandwidth; now the fault plan
        // decides its fate on the wire.
        const fault::Verdict v =
            injector_->packet_verdict(f.msg.src, f.msg.dst, eng_->now());
        if (v == fault::Verdict::kDrop) {
          ++faults_drop_;
          lose_packet(f, p);
          break;  // vanishes at the sender NIC: nothing enters the switch
        }
        if (v == fault::Verdict::kCorrupt) {
          // Corrupt packets travel the full path (burning switch and rx
          // bandwidth) and fail their CRC at the receiver (kRx below).
          ++faults_corrupt_;
          f.corrupt_mask |= std::uint64_t{1} << p;
        }
      }
      if (f.stage_src != nullptr) {
        sched(MsgFlow::kSrcStage, p, f.stage_src->reserve(pkt));
      } else {
        enter_switch();
      }
      break;
    case MsgFlow::kSrcStage:
      enter_switch();
      break;
    case MsgFlow::kHop0:
    case MsgFlow::kHop1:
    case MsgFlow::kHop2: {
      const int h = kind - MsgFlow::kHop0 + 1;
      if (h < f.nhops) {
        sched(static_cast<std::uint8_t>(MsgFlow::kHop0 + h), p,
              f.hops[h]->reserve(pkt));
      } else {
        enter_dst();
      }
      break;
    }
    case MsgFlow::kDstStage:
      enter_rx();
      break;
    case MsgFlow::kRxProc:
      sched(MsgFlow::kRx, p, f.rx->reserve(pkt));
      break;
    case MsgFlow::kRx:
      if (f.faulted) {
        if (f.corrupt_mask & (std::uint64_t{1} << p)) {
          // CRC failure detected at the receiver NIC: discard.
          f.corrupt_mask &= ~(std::uint64_t{1} << p);
          lose_packet(f, p);
          break;
        }
        if (recovery_.protocol == RecoveryConfig::Protocol::kGoBackN &&
            p > 0 && (f.lost & ((std::uint64_t{1} << p) - 1)) != 0) {
          // Go-Back-N: an earlier packet of this message is missing, so
          // the firmware's sequence check rejects this one — only the
          // cumulative prefix is ever acknowledged. The sender will
          // resend the whole window from the gap.
          ++gbn_discards_;
          lose_packet(f, p);
          break;
        }
      }
      sched(MsgFlow::kBus, p, f.dst_bus->reserve(pkt));
      break;
    case MsgFlow::kBus:
      if (--f.packets_left == 0) deliver(f);
      break;

    case MsgFlow::kRto:
      f.rto_armed = false;
      if (f.pending > 0 || f.fetching) {
        // Packets of the current round are still moving (or still being
        // fetched); check again after another timeout.
        arm_rto(f);
        break;
      }
      MNS_AUDIT(f.lost != 0, "retransmit timer fired with nothing lost");
      ++f.attempts;
      if (f.attempts > watchdog_rounds_) {
        // Progress watchdog: a flow burned through more retransmit
        // rounds than any sane retry budget allows (misconfigured
        // budget meeting a dead component = RTO storm). Fail cleanly
        // with a diagnostic instead of spinning forever.
        throw sim::LivelockError(progress_report());
      }
      if (f.attempts > recovery_.retry_budget) {
        fail_flow(f);
        break;
      }
      resend_lost(f);
      arm_rto(f);
      break;

    case MsgFlow::kResendBatch: {
      // Fused resend round: launch every owed packet in ascending order,
      // exactly the sequence the per-packet kLaunch events produced. The
      // --pending stands in for each replaced launch event's own firing.
      std::uint64_t m = std::exchange(f.resend_mask, 0);
      MNS_AUDIT(m != 0, "resend batch fired with an empty mask");
      while (m != 0) {
        const auto q = static_cast<std::uint64_t>(std::countr_zero(m));
        m &= m - 1;
        MNS_AUDIT(f.pending > 0, "resend batch with zero pending");
        --f.pending;
        sched(MsgFlow::kTx, q, f.tx->reserve(f.pkt_bytes(q)));
      }
      break;
    }

    case MsgFlow::kExFetch:
      if (f.demoted) {
        if (--f.stale_events == 0) maybe_release(f);
        break;
      }
      f.ex_fetch_fired = true;
      {
        auto h = std::exchange(f.sender, std::coroutine_handle<>{});
        if (h) h.resume();
      }
      break;
    case MsgFlow::kExLocal:
      if (f.demoted) {
        if (--f.stale_events == 0) maybe_release(f);
        break;
      }
      f.ex_local_fired = true;
      if (!f.local_fired && f.msg.local_complete) {
        f.local_fired = true;
        f.msg.local_complete();
      }
      break;
    case MsgFlow::kExDeliver:
      if (f.demoted) {
        if (--f.stale_events == 0) maybe_release(f);
        break;
      }
      for (auto& rec : f.claims) rec.pipe->clear_claim(&f);
      deliver(f);
      break;

    case MsgFlow::kExArm:
      f.ex_arm_fired = true;
      if (f.demoted) {
        // Launch-window demotion re-entry: this event occupies the exact
        // slot of the packet machine's packet-0 fetch completion, so
        // restarting the closed fetch loop here reproduces the packet
        // path's event order bit for bit (see demote()).
        MNS_AUDIT(f.replay_deferred, "armed re-entry without deferral");
        f.replay_deferred = false;
        sched(MsgFlow::kLaunch, 0, eng_->now());
        if (f.packets > 1) {
          sched(MsgFlow::kFetch, 1, f.src_bus->reserve(f.pkt_bytes(1)));
        } else {
          auto h = std::exchange(f.sender, std::coroutine_handle<>{});
          if (h) h.resume();
        }
      }
      break;
  }
}

void NetFabric::deliver(MsgFlow& f) {
  if (f.rto_armed) {
    // The happy-path cancel: the whole message made it, retire the
    // retransmit timer (frees its boxed-closure-free payload in place).
    eng_->cancel(f.rto_id);
    f.rto_armed = false;
  }
  MNS_AUDIT(f.lost == 0 && f.corrupt_mask == 0,
            "message delivered with packets still marked lost");
  ++delivered_;
  if (nic_.ack_processing > sim::Time::zero() && f.msg.src != f.msg.dst) {
    // Delivery ack returns to the source NIC and occupies its protocol
    // processor while the send token is retired.
    eng_->spawn([](NetFabric& self, sim::Engine& eng,
                   int src) -> sim::Task<void> {
      co_await eng.delay(self.nic_.ack_delay);
      co_await self.nic_proc(src).occupy(self.nic_.ack_processing);
    }(*this, *eng_, f.msg.src), /*daemon=*/true);
  }
  on_delivered(f.msg);
  if (f.msg.complete_on_delivery && f.msg.local_complete) {
    f.msg.local_complete();
  }
  if (f.msg.remote_arrival) f.msg.remote_arrival();
  f.delivered_done = true;
  maybe_release(f);
}

// ---------------------------------------------------------------------------
// Recovery machine. A lost packet (drop verdict, CRC failure, or Go-Back-N
// sequence rejection) sets its bit in f.lost and arms a per-flow
// retransmit timer at the source NIC. When the timer fires with no packet
// of the flow still in flight, the lost set is resent (one more attempt);
// when the retry budget is exhausted the flow surfaces an error to the
// device instead and is retired. Conservation (audited):
//   faults_drop_ + faults_corrupt_ + gbn_discards_
//     == packets_retransmitted_ + packets_abandoned_
// ---------------------------------------------------------------------------

void NetFabric::lose_packet(MsgFlow& f, std::uint64_t p) {
  f.lost |= std::uint64_t{1} << p;
  arm_rto(f);
}

void NetFabric::arm_rto(MsgFlow& f) {
  if (f.rto_armed) return;
  f.rto_id = eng_->at_cancellable(
      eng_->now() + rto_delay(f),
      sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(MsgFlow::kRto, 0)));
  f.rto_armed = true;
}

sim::Time NetFabric::rto_delay(const MsgFlow& f) const {
  sim::Time d = recovery_.rto;
  if (recovery_.backoff_cap > sim::Time::zero()) {
    // Bounded exponential backoff (Elan hardware retry): rto, 2*rto, ...
    // capped. The other protocols keep a fixed timeout.
    for (int i = 0; i < f.attempts && d < recovery_.backoff_cap; ++i) {
      d = d * 2;
    }
    if (d > recovery_.backoff_cap) d = recovery_.backoff_cap;
  }
  return d;
}

void NetFabric::resend_lost(MsgFlow& f) {
  MNS_AUDIT(f.lost != 0, "resend round with an empty lost set");
  MNS_AUDIT(f.resend_mask == 0, "overlapping resend rounds");
  // IB RC / Elan resend exactly the lost packets; GM's Go-Back-N window —
  // everything from the first gap onward — is already what the lost set
  // holds, because the receiver rejected the whole post-gap tail.
  const auto n = static_cast<std::uint64_t>(std::popcount(f.lost));
  f.resend_mask = f.lost;
  f.lost = 0;
  retransmitted_ += n;
  // The retransmitted copies re-cross the tx stage, so the tx-drain
  // counter must see them (already decremented on the lost pass). The
  // pending count carries the batch event standing in for the launches.
  f.packets_left_tx += n;
  f.pending += static_cast<std::uint32_t>(n);
  // One event relaunches the whole round (see Kind::kResendBatch); a
  // 64-packet Go-Back-N storm schedules 1 now-queue entry instead of 64.
  eng_->at(eng_->now(), sim::EventFn(&MsgFlow::thunk, &f,
                                     MsgFlow::word(MsgFlow::kResendBatch,
                                                   0)));
}

void NetFabric::fail_flow(MsgFlow& f) {
  // Retry budget exhausted: surface the transport error (IB QP error / GM
  // give-up / Elan retry exhaustion) to the device and retire the flow.
  const auto abandoned = static_cast<std::uint64_t>(std::popcount(f.lost));
  MNS_AUDIT(abandoned == f.packets_left,
            "abandoned flow with undelivered packets not in the lost set");
  abandoned_ += abandoned;
  f.lost = 0;
  ++errored_;
  if (fail_stop_armed_ && injector_ &&
      injector_->link_dead(f.msg.src, f.msg.dst, eng_->now())) {
    // Attribution: the budget ran out against a permanently dead
    // link/NIC, not a lossy one. Record it so later messages on the link
    // take the bounded degradation fast path instead of re-running the
    // whole retry cycle.
    learn_link_dead(f.msg.src, f.msg.dst);
  }
  on_aborted(f.msg);
  if (f.msg.on_failed) f.msg.on_failed();
  f.delivered_done = true;  // reuse the release machinery
  maybe_release(f);
}

void NetFabric::set_fault_plan(const fault::FaultPlan& plan) {
  if (plan.empty()) return;  // keeps the data path bit-identical
  injector_ = std::make_unique<fault::Injector>(plan, nodes_.size());
  // Fail-stop clauses arm the degradation machinery. Transient-only
  // plans leave fail_stop_armed_ false, so the sender_loop fast path
  // and the collectives' agreement epilogue stay compiled-out at run
  // time and the existing chaos matrices remain bit-identical.
  fail_stop_armed_ = plan.has_fail_stop();
  if (fail_stop_armed_) {
    // Pre-size the dead-link registry here (construction time, cold) so
    // learn_link_dead and the sender-loop fast path never allocate on the
    // simulation's hot path.
    const std::size_t n2 = nodes_.size() * nodes_.size();
    dead_.assign(n2, 0);
    degrade_round_.assign(n2, 0);
  }
  for (const fault::LinkDownSpec& ld : plan.link_downs()) {
    auto bad = [&](int n) {
      return n != fault::kAnyNode &&
             (n < 0 || static_cast<std::size_t>(n) >= nodes_.size());
    };
    if (bad(ld.src) || bad(ld.dst)) {
      throw std::invalid_argument(
          "FaultPlan: linkdown " + std::to_string(ld.src) + "-" +
          std::to_string(ld.dst) + " but the fabric has " +
          std::to_string(nodes_.size()) + " nodes");
    }
  }
  for (const fault::NicDownSpec& nd : plan.nic_downs()) {
    if (nd.node < 0 || static_cast<std::size_t>(nd.node) >= nodes_.size()) {
      throw std::invalid_argument(
          "FaultPlan: nicdown on node " + std::to_string(nd.node) +
          " but the fabric has " + std::to_string(nodes_.size()) + " nodes");
    }
  }
  for (const fault::NicStallSpec& st : injector_->nic_stalls()) {
    if (st.node < 0 || static_cast<std::size_t>(st.node) >= nodes_.size()) {
      throw std::invalid_argument(
          "FaultPlan: NIC stall on node " + std::to_string(st.node) +
          " but the fabric has " + std::to_string(nodes_.size()) + " nodes");
    }
    Pipe* tx = tx_[static_cast<std::size_t>(st.node)].get();
    Pipe* rx = rx_[static_cast<std::size_t>(st.node)].get();
    const sim::Time dur = st.duration;
    // The stall is pure occupancy on both DMA engines. reserve_after
    // breaks claims, so an express flow holding the pipe demotes — a
    // faulted window always runs at packet granularity.
    eng_->at(st.at, [tx, rx, dur] {
      tx->reserve_after(dur, 0);
      rx->reserve_after(dur, 0);
    });
    // Keep the engine running past the stall window so the finalize
    // "pipes idle" audit sees the occupancy expire.
    eng_->at(st.at + dur, [] {});
  }
}

bool NetFabric::express_launch(MsgFlow& f) {
  f.express = true;
  f.launch_time = eng_->now();
  for (auto& rec : f.claims) rec.snap = rec.pipe->state();
  if (!replay_flow(f, /*materialize=*/false)) {
    // The closed form can't reproduce the packet interleaving; undo the
    // partial bulk apply (nothing else has run — this is synchronous) and
    // let the packet machine drive the message.
    for (auto& rec : f.claims) rec.pipe->restore(rec.snap);
    f.express = false;
    f.first_packet = true;  // the aborted walk consumed it
    return false;
  }
  ++express_msgs_;
  // Claim every path pipe until the flow's final delivery instant — not
  // just until our last reservation on that pipe. A shorter claim could
  // lapse while the flow is still in flight; a foreign reservation could
  // then legally land on the lapsed pipe, and a later demotion's rollback
  // would wipe it. With the uniform expiry, nothing foreign can touch any
  // path pipe between the bulk apply and delivery without demoting us
  // first, so the snapshots always restore cleanly (the epoch audit).
  for (auto& rec : f.claims) {
    rec.pipe->claim(&f, f.ex_deliver);
    rec.epoch = rec.pipe->epoch();
  }
  return true;
}

void NetFabric::demote(MsgFlow& f) {
  MNS_AUDIT(f.express && !f.demoted, "demotion of a non-express flow");
  ++express_demotions_;
  f.demoted = true;
  for (auto& rec : f.claims) {
    rec.pipe->clear_claim(&f);
    MNS_AUDIT(rec.pipe->epoch() == rec.epoch,
              "foreign reservation slipped into a claimed express window");
    rec.pipe->restore(rec.snap);
  }
  f.stale_events = (f.ex_fetch_fired ? 0 : 1) +
                   ((f.ex_local_scheduled && !f.ex_local_fired) ? 1 : 0) +
                   1;  // kExDeliver is always still pending here
  // Reset the packet-machine counters; the materializing replay re-applies
  // every virtual event whose time has already passed.
  f.packets_left_tx = f.packets;
  f.packets_left = f.packets;
  f.first_packet = true;
  if (!f.ex_arm_fired) {
    // Demoted inside the launch window, before any packet event would have
    // fired. The packet machine's only pending event here is the packet-0
    // fetch completion — exactly where the arm sits, carrying the seq it
    // was given in the flow's own launch handler. Re-apply just that fetch
    // occupancy (the rollback erased it; the packet world holds it) and
    // let the arm restart the closed fetch loop in its own event, so every
    // subsequent event is scheduled from the same handler position the
    // packet machine would use. Materializing right here instead would
    // stamp the replacement events inside the DEMOTER's handler, flipping
    // same-instant event order against the packet path.
    f.replay_deferred = true;
    f.src_bus->reserve_at(f.launch_time, f.pkt_bytes(0));
    return;
  }
  replay_flow(f, /*materialize=*/true);
}

bool NetFabric::replay_flow(MsgFlow& f, bool mat) {
  const sim::Time now = eng_->now();

  // Reservations with explicit (virtual) arrival instants.
  auto resv = [&](Pipe* pipe, sim::Time arrive,
                  std::uint64_t bytes) -> sim::Time {
    return pipe->reserve_at(arrive, bytes);
  };
  auto resv_after = [&](Pipe* pipe, sim::Time arrive, sim::Time lead,
                        std::uint64_t bytes) -> sim::Time {
    return pipe->reserve_after_at(arrive, lead, bytes);
  };
  auto sched = [&](std::uint8_t kind, std::uint64_t p, sim::Time t) {
    // Materialized events re-enter the packet machine, whose entry
    // decrements the pending count (express flows are never faulted, but
    // the drain counter must stay balanced for the flow-release audit).
    if (kind <= MsgFlow::kBus) ++f.pending;
    eng_->at(t, sim::EventFn(&MsgFlow::thunk, &f, MsgFlow::word(kind, p)));
  };

  sim::Time t_local{};
  sim::Time t_deliver{};
  sim::Time c_last{};
  // With a shared protocol processor, the first packet's rx reservation is
  // made only once its processor detour completes (`rx_gate`); a later
  // packet reaching rx before that instant would reserve rx *first* in the
  // real event order. The sequential walk can't express that interleaving,
  // so the apply pass aborts on it (`walk` returns false).
  sim::Time rx_gate{};
  bool rx_gated = false;

  // Walk one packet's stage chain from its launch instant. In materialize
  // mode, a stage whose completion lies in the future becomes a real
  // packet-machine event and the walk stops — every earlier stage has
  // "already happened" and is re-applied with its side effects.
  auto walk = [&](std::uint64_t p, std::uint64_t pkt,
                  sim::Time launch_at) -> bool {
    sim::Time t = resv(f.tx, launch_at, pkt);
    if (p + 1 == f.packets) t_local = t;
    if (mat && t > now) {
      sched(MsgFlow::kTx, p, t);
      return true;
    }
    if (mat) {
      if (--f.packets_left_tx == 0 && !f.msg.complete_on_delivery &&
          f.msg.local_complete && !f.local_fired) {
        // Only reachable when the virtual tx-done instant is exactly now:
        // anything strictly earlier already fired the real kExLocal.
        f.local_fired = true;
        f.msg.local_complete();
      }
    }
    if (f.stage_src != nullptr) {
      t = resv(f.stage_src, t, pkt);
      if (mat && t > now) {
        sched(MsgFlow::kSrcStage, p, t);
        return true;
      }
    }
    for (int h = 0; h < f.nhops; ++h) {
      t = resv(f.hops[h], t, pkt);
      if (mat && t > now) {
        sched(static_cast<std::uint8_t>(MsgFlow::kHop0 + h), p, t);
        return true;
      }
    }
    if (f.stage_dst != nullptr) {
      t = resv(f.stage_dst, t, pkt);
      if (mat && t > now) {
        sched(MsgFlow::kDstStage, p, t);
        return true;
      }
    }
    if (f.first_packet) {
      f.first_packet = false;
      // Express eligibility guarantees rx_stall is pure for this message,
      // so evaluating it here (launch or demotion) matches the packet
      // path evaluating it at first-packet delivery.
      const sim::Time stall = rx_stall(f.msg) + nic_.per_msg_rx_setup;
      if (f.nic_rx_proc != nullptr) {
        t = resv_after(f.nic_rx_proc, t, stall, 0);
        if (mat && t > now) {
          sched(MsgFlow::kRxProc, p, t);
          return true;
        }
        rx_gate = t;
        rx_gated = true;
        t = resv(f.rx, t, pkt);
      } else {
        t = resv_after(f.rx, t, stall, pkt);
      }
    } else {
      // Abort (apply pass only) if this packet reaches rx at or before the
      // gated first-packet rx reservation: ties and overtakes resolve by
      // event order, which the closed form cannot reproduce. A demotion
      // replay re-derives the exact launch-time trajectory, so the apply
      // pass having passed this check means materialize cannot trip it.
      if (!mat && rx_gated && t <= rx_gate) return false;
      t = resv(f.rx, t, pkt);
    }
    if (mat && t > now) {
      sched(MsgFlow::kRx, p, t);
      return true;
    }
    t = resv(f.dst_bus, t, pkt);
    if (p + 1 == f.packets) t_deliver = t;
    if (mat && t > now) {
      sched(MsgFlow::kBus, p, t);
      return true;
    }
    if (mat) {
      if (p + 1 == f.packets) {
        // Boundary demotion (now == the express delivery instant): the
        // competitor's reservation ties with our final completion, and the
        // packet machine would run its delivery event after the
        // competitor's. Hand delivery through the now-queue.
        MNS_AUDIT(t == now, "demotion after the express delivery instant");
        sched(MsgFlow::kBus, p, now);
        return true;
      }
      --f.packets_left;
    }
    return true;
  };

  // The closed-loop fetch chain: fetch p+1 is reserved inside fetch p's
  // completion event; each completion also launches its packet.
  sim::Time c_prev = f.launch_time;
  sim::Time c_first{};
  for (std::uint64_t p = 0; p < f.packets; ++p) {
    const std::uint64_t pkt = f.pkt_bytes(p);
    const sim::Time c = resv(f.src_bus, c_prev, pkt);
    if (p == 0) c_first = c;
    if (mat && c > now) {
      // The pending fetch-completion event re-enters the closed loop: it
      // launches packet p and keeps fetching.
      sched(MsgFlow::kFetch, p, c);
      return true;
    }
    if (p + 1 == f.packets) c_last = c;
    if (!walk(p, pkt, c)) return false;
    c_prev = c;
  }

  if (mat) {
    if (!f.ex_fetch_fired) {
      // Only reachable when the last fetch lands exactly at now (anything
      // earlier already fired the real kExFetch). The packet path would
      // resume the sender inside that event; hand the resume through the
      // now-queue so it runs after the demoting reservation completes.
      f.ex_fetch_fired = true;
      auto h = std::exchange(f.sender, std::coroutine_handle<>{});
      if (h) eng_->at(now, sim::EventFn::resume(h));
    }
    return true;
  }

  // Apply mode: only the terminal events materialize — plus the arm, the
  // demotion re-entry anchor sitting at the packet-0 fetch instant. Until
  // it fires, the packet machine would have exactly one pending event (the
  // packet-0 fetch completion, scheduled from this very handler), so a
  // demotion in that window can hand the restart to the arm and keep
  // same-instant event order bit-identical to the packet path.
  f.ex_deliver = t_deliver;
  f.ex_local_scheduled =
      !f.msg.complete_on_delivery && static_cast<bool>(f.msg.local_complete);
  sched(MsgFlow::kExArm, 0, c_first);
  sched(MsgFlow::kExFetch, 0, c_last);
  if (f.ex_local_scheduled) sched(MsgFlow::kExLocal, 0, t_local);
  sched(MsgFlow::kExDeliver, 0, t_deliver);
  return true;
}

void NetFabric::post_switch_broadcast(int src, std::uint64_t bytes,
                                      sim::Time extra_setup,
                                      // simlint-allow: model-alloc (per-broadcast)
                                      std::function<void()> on_delivered) {
  ++bcasts_posted_;
  auto task = [](NetFabric& self, int src, std::uint64_t bytes,
                 sim::Time extra_setup,
                 // simlint-allow: model-alloc (per-broadcast callback)
                 std::function<void()> on_delivered) -> sim::Task<void> {
    co_await self.eng_->delay(self.nic_.per_msg_setup + extra_setup);

    // Legs replicate per chunk at the same pipelining granularity as
    // unicast messages (they used to move the full payload as one
    // un-chunked transfer, bypassing the 64-chunk cap).
    const ChunkPlan plan = chunk_plan(bytes, self.nic_.mtu);
    const std::size_t peers = self.node_count() - 1;

    struct Fanout {
      std::size_t remaining;
      sim::Trigger done;
      Fanout(sim::Engine& e, std::size_t n) : remaining(n), done(e) {}
    };
    auto fan = std::make_shared<Fanout>(  // simlint-allow: model-alloc
        *self.eng_, plan.packets * std::max<std::size_t>(peers, 1));

    auto leg = [](NetFabric& self, int src, int dst, std::uint64_t pkt,
                  std::shared_ptr<Fanout> fan) -> sim::Task<void> {
      co_await self.topo_->route(src, dst, pkt);
      co_await self.rx_pipe(dst).transfer(pkt);
      co_await self.node(dst).bus().dma(pkt);
      if (--fan->remaining == 0) fan->done.fire();
    };
    auto chunk_tail = [](NetFabric& self, int src, std::uint64_t pkt,
                         std::size_t peers, std::shared_ptr<Fanout> fan,
                         auto leg) -> sim::Task<void> {
      co_await self.tx_pipe(src).transfer(pkt);
      if (peers == 0) {
        // Single-node fabric: the broadcast "lands" once injected.
        if (--fan->remaining == 0) fan->done.fire();
        co_return;
      }
      for (std::size_t d = 0; d < self.node_count(); ++d) {
        if (static_cast<int>(d) == src) continue;
        self.eng_->spawn(leg(self, src, static_cast<int>(d), pkt, fan),
                         /*daemon=*/true);
      }
    };

    // Closed-loop chunk injection, mirroring the unicast sender.
    std::uint64_t left = bytes;
    for (std::uint64_t p = 0; p < plan.packets; ++p) {
      const std::uint64_t pkt = left < plan.chunk ? left : plan.chunk;
      left -= pkt;
      co_await self.node(src).bus().dma(pkt);
      self.eng_->spawn(chunk_tail(self, src, pkt, peers, fan, leg),
                       /*daemon=*/true);
    }
    co_await fan->done.wait();
    ++self.bcasts_delivered_;
    if (on_delivered) on_delivered();
  };
  eng_->spawn(task(*this, src, bytes, extra_setup, std::move(on_delivered)),
              /*daemon=*/true);
}

void NetFabric::collect_pipes(std::vector<Pipe*>& out) {
  for (auto& p : tx_) out.push_back(p.get());
  for (auto& p : rx_) out.push_back(p.get());
  for (auto& p : nic_proc_) out.push_back(p.get());
  for (auto* n : nodes_) out.push_back(&n->bus().pipe());
  topo_->collect_pipes(out);
}

void NetFabric::register_audits(audit::AuditReport& report) {
  report.add_check("model::NetFabric", [this](audit::AuditReport::Scope& s) {
    s.require_eq(messages_posted(),
                 messages_delivered() + messages_errored() +
                     messages_aborted(),
                 "message(s) posted but neither delivered, surfaced as a "
                 "transport error, nor aborted by degradation");
    s.require_eq(packets_dropped() + packets_corrupted() +
                     packets_gbn_discarded(),
                 packets_retransmitted() + packets_abandoned(),
                 "packet-loss conservation broken: every lost packet must "
                 "be retransmitted or abandoned with its flow");
    s.require_eq(bcasts_posted_, bcasts_delivered_,
                 "switch broadcast(s) posted but never completed");
    s.require_eq(flows_active_, std::size_t{0},
                 "message flow(s) not recycled at finalize");
    std::vector<Pipe*> pipes;
    collect_pipes(pipes);
    for (Pipe* p : pipes) {
      s.require(!p->claimed(), "pipe claim not cleared at finalize");
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::string node = "node " + std::to_string(i);
      s.require(tx_[i]->idle(), node + ": tx pipe busy at finalize");
      s.require(rx_[i]->idle(), node + ": rx pipe busy at finalize");
      s.require(nic_proc_[i]->idle(),
                node + ": NIC protocol processor busy at finalize");
      s.require(sendq_[i]->empty(),
                node + ": send queue not drained at finalize");
    }
  });
}

}  // namespace mns::model
