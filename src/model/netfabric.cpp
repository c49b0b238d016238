#include "model/netfabric.hpp"

#include <algorithm>
#include <bit>
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
// ---------------------------------------------------------------------------
struct NetFabric::MsgFlow {
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
  bool local_fired = false;  // eager local_complete already delivered

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

  MsgFlow* next_free = nullptr;

  // Completion-event kinds; the event word is kind | (packet << 8).
  enum Kind : std::uint8_t {
    kLaunch,    // zero-delay launch after fetch (mirrors the old spawn)
    kTx,        // sender NIC injection done
    kSrcStage,  // source staging done
    kHop0,      // switching stage hops
    kHop1,
    kHop2,
    kDstStage,  // destination staging done
    kRxProc,    // shared-processor rx setup done
    kRx,        // receiver NIC delivery done
    kBus,       // destination host-bus DMA done (lossless: last packet only)
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

  std::uint64_t pkt_bytes(std::uint64_t p) const {
    if (msg.bytes == 0) return 0;
    return p + 1 < packets ? chunk : msg.bytes - chunk * (packets - 1);
  }
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
                            // simcheck-allow: model-alloc (error path only)
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
  f.next_free = free_list_;
  free_list_ = &f;
}

void NetFabric::init_flow(MsgFlow& f, NetMsg msg) {
  f.msg = std::move(msg);
  const ChunkPlan plan = chunk_plan(f.msg.bytes, nic_.mtu);
  f.chunk = plan.chunk;
  f.packets = plan.packets;
  f.packets_left_tx = plan.packets;
  f.packets_left = plan.packets;
  f.first_packet = true;
  f.local_fired = false;
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

    MsgFlow& f = *acquire_flow();
    init_flow(f, std::move(msg));
    // Closed-loop injection: each packet is fetched across the host bus
    // before the next, so concurrent senders on this node interleave at
    // packet granularity and per-pair ordering is preserved.
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
    // `f` may already be recycled past this point; never touch it here.
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
      } else if (f.packets_left > 1) {
        // Lossless flow, not its last packet: its kBus event would only
        // count down, so reserve the bus slot and count down here. The
        // last packet takes the latest slot on the FIFO bus, and its kBus
        // delivers at the same instant as before; every other event keeps
        // its (time, seq) order. Faulted flows keep every kBus, because
        // the retransmit timer's `pending` drain check counts them.
        f.dst_bus->reserve(pkt);
        --f.packets_left;
        break;
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
  release_flow(f);
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
  release_flow(f);
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
    // The stall is pure occupancy on both DMA engines.
    eng_->at(st.at, [tx, rx, dur] {
      tx->reserve_after(dur, 0);
      rx->reserve_after(dur, 0);
    });
    // Keep the engine running past the stall window so the finalize
    // "pipes idle" audit sees the occupancy expire.
    eng_->at(st.at + dur, [] {});
  }
}

void NetFabric::post_switch_broadcast(int src, std::uint64_t bytes,
                                      sim::Time extra_setup,
                                      // simcheck-allow: model-alloc (per bcast)
                                      std::function<void()> on_delivered) {
  ++bcasts_posted_;
  auto task = [](NetFabric& self, int src, std::uint64_t bytes,
                 sim::Time extra_setup,
                 // simcheck-allow: model-alloc (per-broadcast callback)
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
    auto fan = std::make_shared<Fanout>(  // simcheck-allow: model-alloc
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
