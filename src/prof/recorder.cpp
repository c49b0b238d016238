#include "prof/recorder.hpp"

namespace mns::prof {

void Recorder::touch_buffer(RankStats& st, std::uint64_t addr,
                            std::uint64_t bytes) {
  if (addr == 0) return;  // no buffer identity (internal temporaries)
  ++st.buffer_accesses;
  st.buffer_bytes += bytes;
  auto& seen = seen_[static_cast<std::size_t>(&st - ranks_.data())];
  if (!seen.insert(addr).second) {
    ++st.buffer_reuses;
    st.buffer_reuse_bytes += bytes;
  }
}

void Recorder::on_send(int rank, std::uint64_t bytes, bool nonblocking,
                       std::uint64_t addr, bool intra_node) {
  if (!enabled_) return;
  auto& st = ranks_[static_cast<std::size_t>(rank)];
  st.sent.add(bytes);
  ++st.mpi_calls;
  st.total_bytes += bytes;
  ++st.ptp_calls;
  st.ptp_bytes += bytes;
  if (intra_node) {
    ++st.intra_calls;
    st.intra_bytes += bytes;
  }
  if (nonblocking) {
    ++st.isend_calls;
    st.isend_bytes += bytes;
  }
  touch_buffer(st, addr, bytes);
}

void Recorder::on_recv(int rank, std::uint64_t bytes, bool nonblocking,
                       std::uint64_t addr) {
  if (!enabled_) return;
  auto& st = ranks_[static_cast<std::size_t>(rank)];
  // Note: receives do not count towards mpi_calls — the paper's call
  // accounting (Tables 1 and 5) follows send-side + collective calls.
  if (nonblocking) {
    ++st.irecv_calls;
    st.irecv_bytes += bytes;
  }
  touch_buffer(st, addr, bytes);
}

void Recorder::on_collective(int rank, const std::string& op,
                             std::uint64_t bytes, std::uint64_t addr) {
  if (!enabled_) return;
  auto& st = ranks_[static_cast<std::size_t>(rank)];
  ++st.mpi_calls;
  ++st.collective_calls;
  st.sent.add(bytes);  // Table 1 counts collective calls by buffer size
  st.total_bytes += bytes;
  st.collective_bytes += bytes;
  ++coll_ops_[op];
  touch_buffer(st, addr, bytes);
}

RankStats Recorder::totals() const {
  RankStats out;
  for (const auto& st : ranks_) {
    out.isend_calls += st.isend_calls;
    out.isend_bytes += st.isend_bytes;
    out.irecv_calls += st.irecv_calls;
    out.irecv_bytes += st.irecv_bytes;
    out.buffer_accesses += st.buffer_accesses;
    out.buffer_reuses += st.buffer_reuses;
    out.buffer_bytes += st.buffer_bytes;
    out.buffer_reuse_bytes += st.buffer_reuse_bytes;
    out.mpi_calls += st.mpi_calls;
    out.collective_calls += st.collective_calls;
    out.total_bytes += st.total_bytes;
    out.collective_bytes += st.collective_bytes;
    out.ptp_calls += st.ptp_calls;
    out.ptp_bytes += st.ptp_bytes;
    out.intra_calls += st.intra_calls;
    out.intra_bytes += st.intra_bytes;
    out.sent.merge(st.sent);
  }
  return out;
}

}  // namespace mns::prof
