#include "mpi/ch_rdv.hpp"

namespace mns::mpi {

void RdvChannel::host_gated(Proc& proc, std::function<void()> fn) const {
  if (cfg_.nic_progress) {
    fn();
  } else {
    proc.host_action(std::move(fn));
  }
}

RdvChannel::RdvChannel(Mpi& mpi, model::NetFabric& fabric,
                       RdvChannelConfig cfg,
                       std::function<model::RegistrationCache&(int)> regcache,
                       std::function<std::uint64_t(int)> memory)
    : mpi_(&mpi),
      fabric_(&fabric),
      cfg_(std::move(cfg)),
      regcache_(std::move(regcache)),
      memory_(std::move(memory)) {
  shm_.reserve(fabric_->node_count());
  for (std::size_t n = 0; n < fabric_->node_count(); ++n) {
    shm_.push_back(
        std::make_unique<shm::ShmDomain>(fabric_->engine(), cfg_.shm));
  }
}

std::uint64_t RdvChannel::memory_bytes(int node) const {
  return memory_(node);
}

void RdvChannel::hw_broadcast(Rank root, std::uint64_t bytes,
                              std::uint64_t /*addr*/,
                              std::function<void()> done) {
  fabric_->post_switch_broadcast(mpi_->node_of(root), bytes,
                                 cfg_.hw_bcast_overhead, std::move(done));
}

sim::Task<void> RdvChannel::start_send(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  co_await sp.cpu().busy(cfg_.o_send);
  const bool intra = mpi_->same_node(op.env.src, op.env.dst);
  if (op.synchronous) {
    // MPI_Ssend: the rendezvous handshake IS the synchronization.
    co_await send_rendezvous(std::move(op));
  } else if (intra && op.env.bytes < cfg_.smp_threshold) {
    co_await send_shm(std::move(op));
  } else if (op.env.bytes < cfg_.eager_threshold) {
    co_await send_eager(std::move(op));  // loopback when intra
  } else {
    co_await send_rendezvous(std::move(op));
  }
}

// --- shared memory path ---------------------------------------------------

sim::Task<void> RdvChannel::send_shm(SendOp op) {
  // Sender and receiver share the node, so one domain serves both ends.
  auto& dom = *shm_[static_cast<std::size_t>(mpi_->node_of(op.env.src))];
  auto payload = std::make_shared<Payload>();
  capture_payload(op.buf, *payload);
  const Envelope env = op.env;
  auto req = op.req;

  shm::ShmMsg m;
  m.src_rank = env.src;
  m.dst_rank = env.dst;
  m.bytes = env.bytes;
  m.remote_arrival = [this, env, payload, &dom] {
    on_buffered_arrival(env, payload, dom.recv_cost(env.bytes));
  };
  co_await dom.send_copy(std::move(m));
  req->complete(status_of(env));  // buffered: sender is done after copy-in
}

// --- fabric-error degradation ----------------------------------------------
//
// When a fabric's recovery protocol exhausts its retry budget the message's
// on_failed hook fires instead of the remaining completion callbacks. The
// device's job is to make sure no request hangs: the sender side completes
// with an error Status, and the receiver side learns about the failure
// through its matcher (deliver_error_envelope).

void RdvChannel::fail_recv_side(const Envelope& env, int from_node) {
  // The teardown is an error notification from the failed message's
  // source node (see NetFabric::run_on_node).
  fabric_->run_on_node(from_node, mpi_->node_of(env.dst), [this, env] {
    auto& rp = mpi_->proc(env.dst);
    host_gated(rp, [this, env, &rp] {
      rp.cpu().accrue_overhead(cfg_.o_recv);
      deliver_error_envelope(rp.matcher(), env);
    });
  });
}

void RdvChannel::fail_rendezvous(std::shared_ptr<RdvState> st,
                                 int from_node) {
  const Envelope env = st->send.env;
  // The done flags are checked inside the routed closures: under a
  // fail-stop plan they run one notification delay later.
  fabric_->run_on_node(from_node, mpi_->node_of(env.src), [st, env] {
    if (!st->send.req->done) st->send.req->complete(error_status(env));
  });
  fabric_->run_on_node(from_node, mpi_->node_of(env.dst), [this, st, env] {
    if (st->recv_matched) {
      // The receiver already matched (RTS made it); complete its request
      // directly rather than re-running the matcher.
      if (!st->recv.req->done) st->recv.req->complete(error_status(env));
    } else {
      fail_recv_side(env, mpi_->node_of(env.dst));
    }
  });
}

// --- eager path -------------------------------------------------------------

sim::Task<void> RdvChannel::send_eager(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  const int snode = mpi_->node_of(op.env.src);
  const int dnode = mpi_->node_of(op.env.dst);
  // Copy into pre-registered staging: sender CPU pays the memcpy.
  co_await sp.cpu().busy(
      fabric_->node(snode).mem().copy_time(op.env.bytes));
  auto payload = std::make_shared<Payload>();
  capture_payload(op.buf, *payload);
  const Envelope env = op.env;
  auto req = op.req;

  model::NetMsg m;
  m.src = snode;
  m.dst = dnode;
  m.bytes = cfg_.ctrl_bytes + env.bytes;
  m.complete_on_delivery = false;
  m.local_complete = [req, env] { req->complete(status_of(env)); };
  m.remote_arrival = [this, env, payload, dnode] {
    on_buffered_arrival(
        env, payload,
        cfg_.o_recv + fabric_->node(dnode).mem().copy_time(env.bytes));
  };
  m.on_failed = [this, req, env] {
    // Eager sends complete when the data leaves the NIC, so the send
    // request is normally already done here; only the receiver still
    // waits on the lost payload.
    if (!req->done) req->complete(error_status(env));
    fail_recv_side(env, mpi_->node_of(env.src));
  };
  fabric_->post(std::move(m));
}

void RdvChannel::on_buffered_arrival(Envelope env,
                                     std::shared_ptr<Payload> payload,
                                     sim::Time base_cost) {
  auto& rp = mpi_->proc(env.dst);
  const sim::Time cost =
      base_cost + match_scan_cost(rp.matcher(), cfg_.o_match_entry);
  host_gated(rp, [this, env, payload, cost, &rp] {
    if (auto pr = rp.matcher().match_arrival(env)) {
      rp.cpu().accrue_overhead(cost);
      // Completion processing runs on the receiving host CPU: concurrent
      // arrivals serialize through the rank's host-work queue.
      mpi_->engine().spawn(
          [](Proc& rp, sim::Time cost, Envelope env,
             std::shared_ptr<Payload> payload,
             PostedRecv pr) -> sim::Task<void> {
            co_await rp.host_work().occupy(cost);
            copy_buffered(*payload, pr.buf, env.bytes);
            pr.req->complete(status_of(env));
          }(rp, cost, env, payload, std::move(*pr)),
          /*daemon=*/true);
    } else {
      rp.matcher().add_unexpected(
          // simcheck-allow: coro-ref-escape (closure owned by the Unexpected
          // that Comm::irecv_impl's frame holds across co_await claim)
          {env, [this, env, payload, cost](PostedRecv pr) -> sim::Task<void> {
             co_await mpi_->proc(env.dst).cpu().busy(cost);
             copy_buffered(*payload, pr.buf, env.bytes);
             pr.req->complete(status_of(env));
           }});
    }
  });
}

// --- rendezvous path --------------------------------------------------------

sim::Task<void> RdvChannel::send_rendezvous(SendOp op) {
  auto& sp = mpi_->proc(op.env.src);
  const int snode = mpi_->node_of(op.env.src);
  const auto reg = regcache_(snode).try_acquire(op.buf.addr(), op.env.bytes);
  if (reg.cost > sim::Time::zero()) co_await sp.cpu().busy(reg.cost);
  if (!reg.ok) {
    if (!op.synchronous) {
      // Pin-down failed: degrade to the copy-in eager path, which only
      // needs the pre-registered staging buffers. Slower (extra copy),
      // but the send makes progress.
      co_await send_eager(std::move(op));
      co_return;
    }
    // MPI_Ssend must keep the rendezvous handshake — model the driver
    // retrying the (transient) registration failure.
    const sim::Time retry =
        regcache_(snode).acquire(op.buf.addr(), op.env.bytes);
    if (retry > sim::Time::zero()) co_await sp.cpu().busy(retry);
  }

  auto st = std::make_shared<RdvState>();
  st->send = std::move(op);

  model::NetMsg rts;
  rts.src = snode;
  rts.dst = mpi_->node_of(st->send.env.dst);
  rts.bytes = cfg_.ctrl_bytes;
  rts.remote_arrival = [this, st] { on_rts(st); };
  rts.on_failed = [this, st, snode] { fail_rendezvous(st, snode); };
  fabric_->post(std::move(rts));
}

void RdvChannel::on_rts(std::shared_ptr<RdvState> st) {
  auto& rp = mpi_->proc(st->send.env.dst);
  host_gated(rp, [this, st, &rp] {
    rp.cpu().accrue_overhead(
        match_scan_cost(rp.matcher(), cfg_.o_match_entry));
    if (auto pr = rp.matcher().match_arrival(st->send.env)) {
      st->recv = std::move(*pr);
      st->recv_matched = true;
      const sim::Time cost = cts_cost(*st);
      rp.cpu().accrue_overhead(cost);
      mpi_->engine().spawn(
          [](RdvChannel& self, Proc& rp, sim::Time cost,
             std::shared_ptr<RdvState> st) -> sim::Task<void> {
            co_await rp.host_work().occupy(cost);
            self.post_cts(std::move(st));
          }(*this, rp, cost, st),
          /*daemon=*/true);
    } else {
      rp.matcher().add_unexpected(
          // simcheck-allow: coro-ref-escape (closure owned by the Unexpected
          // that Comm::irecv_impl's frame holds across co_await claim)
          {st->send.env, [this, st](PostedRecv pr) -> sim::Task<void> {
             st->recv = std::move(pr);
             st->recv_matched = true;
             co_await mpi_->proc(st->send.env.dst).cpu().busy(cts_cost(*st));
             post_cts(st);
           }});
    }
  });
}

sim::Time RdvChannel::cts_cost(const RdvState& st) const {
  // The receive buffer must be pinned before the CTS can advertise it;
  // a transient registration failure is retried.
  auto& cache = regcache_(mpi_->node_of(st.send.env.dst));
  const auto reg = cache.try_acquire(st.recv.buf.addr(), st.send.env.bytes);
  sim::Time cost = cfg_.o_ctrl + reg.cost;
  if (!reg.ok) cost += cache.acquire(st.recv.buf.addr(), st.send.env.bytes);
  return cost;
}

void RdvChannel::post_cts(std::shared_ptr<RdvState> st) {
  const int dnode = mpi_->node_of(st->send.env.dst);
  model::NetMsg cts;
  cts.src = dnode;
  cts.dst = mpi_->node_of(st->send.env.src);
  cts.bytes = cfg_.ctrl_bytes;
  cts.remote_arrival = [this, st] { on_cts(st); };
  cts.on_failed = [this, st, dnode] { fail_rendezvous(st, dnode); };
  fabric_->post(std::move(cts));
}

void RdvChannel::on_cts(std::shared_ptr<RdvState> st) {
  auto& sp = mpi_->proc(st->send.env.src);
  host_gated(sp, [this, st, &sp] {
    sp.cpu().accrue_overhead(cfg_.o_ctrl);
    // CTS processing occupies the sender host before the data goes out;
    // with many rendezvous sends in flight these serialize — part of why
    // the paper's Fig. 2 bandwidth dips at the eager->rendezvous switch.
    mpi_->engine()
        .spawn(
            [](RdvChannel& self, Proc& sp,
               std::shared_ptr<RdvState> st) -> sim::Task<void> {
              co_await sp.host_work().occupy(self.cfg_.o_ctrl);
              self.post_rendezvous_data(st);
            }(*this, sp, st),
            /*daemon=*/true);
  });
}

void RdvChannel::post_rendezvous_data(std::shared_ptr<RdvState> st) {
  const Envelope env = st->send.env;

  model::NetMsg data;
  data.src = mpi_->node_of(env.src);
  data.dst = mpi_->node_of(env.dst);
  data.bytes = cfg_.ctrl_bytes + env.bytes;
  data.src_addr = st->send.buf.addr();
  data.dst_addr = st->recv.buf.addr();
  data.complete_on_delivery = true;  // RDMA/directed-send ack semantics
  data.local_complete = [this, st, env] {
    // The RDMA write has completed at the sender: the send request is
    // done, and a FIN control message tells the receiver the data is in
    // place (RDMA writes deliver no receiver-side completion by
    // themselves). The FIN trails the data on the same FIFO path.
    st->send.req->complete(status_of(env));
    model::NetMsg fin;
    fin.src = mpi_->node_of(env.src);
    fin.dst = mpi_->node_of(env.dst);
    fin.bytes = cfg_.ctrl_bytes;
    fin.remote_arrival = [this, st, env] {
      auto& rp = mpi_->proc(env.dst);
      rp.cpu().accrue_overhead(cfg_.o_recv);
      mpi_->engine().spawn(
          [](RdvChannel& self, Proc& rp,
             std::shared_ptr<RdvState> st, Envelope env) -> sim::Task<void> {
            co_await rp.host_work().occupy(self.cfg_.o_recv);
            st->recv.req->complete(status_of(env));
          }(*this, rp, st, env),
          /*daemon=*/true);
    };
    fin.on_failed = [this, st, env] {
      fail_rendezvous(st, mpi_->node_of(env.src));
    };
    fabric_->post(std::move(fin));
  };
  data.remote_arrival = [st, env] {
    // Zero-copy delivery: payload lands directly in the receive buffer
    // (the sender has not resumed yet, so its view is intact).
    copy_payload(st->send.buf, st->recv.buf,
                 std::min<std::uint64_t>(env.bytes, st->recv.buf.bytes()));
  };
  data.on_failed = [this, st, env] {
    fail_rendezvous(st, mpi_->node_of(env.src));
  };
  fabric_->post(std::move(data));
}

}  // namespace mns::mpi
