#include "mpi/ch_elan.hpp"

namespace mns::mpi {

ElanChannelConfig default_elan_channel_config() {
  return ElanChannelConfig{
      // Posting Tport descriptors is host-expensive: Quadrics' measured
      // overhead is ~3.3 us combined (Fig. 3) despite its lowest latency.
      .o_send = sim::Time::usec(1.7),
      .o_recv = sim::Time::usec(0.8),
      .o_unexpected = sim::Time::usec(0.8),
      .o_complete = sim::Time::usec(0.8),
      .nic_match_per_entry = sim::Time::usec(1.9),
      .hw_bcast_overhead = sim::Time::usec(8.0),
      .ctrl_bytes = 32,
      .buffered_max = 4096,
  };
}

ElanChannel::ElanChannel(Mpi& mpi, elan::ElanFabric& fabric,
                         ElanChannelConfig cfg)
    : mpi_(&mpi), fabric_(&fabric), cfg_(cfg) {}

std::uint64_t ElanChannel::memory_bytes(int node) const {
  return fabric_->memory_bytes(node);
}

sim::Task<void> ElanChannel::start_send(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  co_await sp.cpu().busy(cfg_.o_send);

  const Envelope env = op.env;
  auto req = op.req;
  const bool buffered = !op.synchronous && env.bytes <= cfg_.buffered_max;
  const View src_view = op.buf;

  // Buffered (small) sends may complete before delivery, so the payload
  // must be captured up front; large sends are zero-copy and the payload
  // is read inside remote_arrival (before the sender resumes).
  auto payload_slot = std::make_shared<Payload>();
  if (buffered) capture_payload(src_view, *payload_slot);

  // MPI_Ssend semantics: completion is tied to the receiver's match, not
  // to delivery into the Elan system buffer.
  const auto sync_req =
      op.synchronous ? req : std::shared_ptr<RequestState>{};

  model::NetMsg m;
  m.src = mpi_->node_of(env.src);
  m.dst = mpi_->node_of(env.dst);
  m.bytes = cfg_.ctrl_bytes + env.bytes;
  m.src_addr = src_view.addr();
  m.dst_addr = 0;  // final placement decided by NIC matching on arrival
  m.complete_on_delivery = !buffered;
  if (!sync_req) {
    m.local_complete = [req, env] { req->complete(status_of(env)); };
  }
  m.remote_arrival = [this, env, payload_slot, src_view, sync_req] {
    on_arrival(env, payload_slot, src_view, sync_req);
  };
  m.on_failed = [this, req, env] {
    // Elan hardware retry exhausted. Buffered sends already completed at
    // NIC-clear; zero-copy and synchronous ones complete with the error
    // here. The receiver learns of the failure through NIC matching (the
    // error envelope), exactly where the data would have matched.
    if (!req->done) req->complete(error_status(env));
    // The error envelope reaches the receiver as an error notification
    // (see NetFabric::run_on_node) and is matched in NIC context, like
    // on_arrival.
    fabric_->run_on_node(
        mpi_->node_of(env.src), mpi_->node_of(env.dst), [this, env] {
          deliver_error_envelope(mpi_->proc(env.dst).matcher(), env);
        });
  };
  fabric_->post(std::move(m));
}

void ElanChannel::on_arrival(Envelope env,
                             std::shared_ptr<Payload> payload_slot,
                             View src_view,
                             std::shared_ptr<RequestState> sync_req) {
  // NIC-side matching: runs NOW, regardless of what the host is doing.
  auto& rp = mpi_->proc(env.dst);
  const int dnode = mpi_->node_of(env.dst);

  // The Elan walks its posted-receive list in NIC memory: each extra
  // entry costs NIC time (heavy when many receives are outstanding, e.g.
  // during an alltoall).
  const sim::Time scan =
      match_scan_cost(rp.matcher(), cfg_.nic_match_per_entry);

  if (auto pr = rp.matcher().match_arrival(env)) {
    // Matched a posted receive: the NIC DMAs straight into the user
    // buffer; the destination pages may stall the NIC MMU.
    const sim::Time stall =
        scan + fabric_->mmu(dnode).access(pr->buf.addr(), env.bytes);
    // Payload: buffered small sends carry a captured copy; zero-copy large
    // sends read the source view, still intact at this instant.
    if (!payload_slot->empty()) {
      copy_buffered(*payload_slot, pr->buf, env.bytes);
    } else {
      copy_payload(src_view, pr->buf, std::min(env.bytes, pr->buf.bytes()));
    }
    if (sync_req) sync_req->complete(status_of(env));  // matched: ssend done
    rp.cpu().accrue_overhead(cfg_.o_complete);
    // The scan + MMU work occupies the NIC processor, serializing with
    // other arrivals (this is what makes a many-receiver burst like
    // alltoall expensive on Quadrics, Fig. 11).
    mpi_->engine().spawn(
        [](ElanChannel& self, int dnode, sim::Time stall, PostedRecv pr,
           Envelope env) -> sim::Task<void> {
          co_await self.fabric_->occupy_nic(dnode, stall);
          co_await self.mpi_->engine().delay(self.cfg_.o_complete);
          pr.req->complete(status_of(env));
        }(*this, dnode, stall, std::move(*pr), env),
        /*daemon=*/true);
    return;
  }

  // Unexpected: lands in the Elan system buffer. Capture the payload now
  // (zero-copy source is still valid at this instant).
  if (payload_slot->empty()) capture_payload(src_view, *payload_slot);
  rp.matcher().add_unexpected(
      {env,
       // simcheck-allow: coro-ref-escape (closure owned by the Unexpected
       // that Comm::irecv_impl's frame holds across co_await claim)
       [this, env, payload_slot, sync_req](PostedRecv pr) -> sim::Task<void> {
         if (sync_req) sync_req->complete(status_of(env));
         // Receiver claims from the system buffer: copy-out on the host.
         co_await mpi_->proc(env.dst).cpu().busy(
             cfg_.o_unexpected +
             fabric_->node(mpi_->node_of(env.dst)).mem().copy_time(env.bytes));
         copy_buffered(*payload_slot, pr.buf, env.bytes);
         pr.req->complete(status_of(env));
       }});
}

void ElanChannel::hw_broadcast(Rank root, std::uint64_t bytes,
                               std::uint64_t addr,
                               std::function<void()> done) {
  // The hardware does the fan-out; the software envelope (posting the
  // broadcast descriptor, completion notification to every rank) still
  // costs a fixed overhead at MPI level.
  auto* eng = &mpi_->engine();
  const sim::Time extra = cfg_.hw_bcast_overhead;
  fabric_->post_hw_broadcast(
      mpi_->node_of(root), bytes, addr,
      [eng, extra, done = std::move(done)] { eng->after(extra, done); });
}

}  // namespace mns::mpi
