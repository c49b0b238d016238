// Core MPI-facing types.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace mns::mpi {

using Rank = int;
using Tag = int;

inline constexpr Rank kAnySource = -2;
inline constexpr Tag kAnyTag = -1;

/// Reserved tag space for collective algorithms; user tags must be >= 0
/// and < kCollectiveTagBase.
inline constexpr Tag kCollectiveTagBase = 1 << 24;

/// MPI_SUCCESS / the one error class the simulator surfaces: the fabric
/// exhausted its recovery protocol's retry budget for a message (IB RC QP
/// error, GM Go-Back-N give-up, Elan retry exhaustion). Requests complete
/// with this in Status::error instead of hanging the engine.
inline constexpr int kErrNone = 0;
inline constexpr int kErrFabric = 1;

struct Status {
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  std::uint64_t bytes = 0;
  int error = kErrNone;
};

enum class Dtype : std::uint8_t { kByte, kInt32, kInt64, kDouble };

constexpr std::size_t dtype_size(Dtype d) {
  switch (d) {
    case Dtype::kByte: return 1;
    case Dtype::kInt32: return 4;
    case Dtype::kInt64: return 8;
    case Dtype::kDouble: return 8;
  }
  return 1;
}

enum class ROp : std::uint8_t { kSum, kMax, kMin };

/// A user buffer handed to MPI.
///
/// Two modes:
///  - real:      wraps actual memory; payloads are moved so applications
///               compute on received data (used by the verified apps).
///  - synthetic: carries only an address identity and a length; all the
///               timing models (registration caches, NIC MMUs, buffer
///               reuse) behave identically, but no bytes move (used by the
///               class-B communication skeletons where allocating real
///               class-B arrays would be pointless).
class View {
 public:
  View() = default;

  static View in(const void* p, std::uint64_t bytes) {
    View v;
    v.addr_ = reinterpret_cast<std::uint64_t>(p);
    v.data_ = const_cast<std::byte*>(static_cast<const std::byte*>(p));
    v.bytes_ = bytes;
    v.writable_ = false;
    return v;
  }

  static View out(void* p, std::uint64_t bytes) {
    View v;
    v.addr_ = reinterpret_cast<std::uint64_t>(p);
    v.data_ = static_cast<std::byte*>(p);
    v.bytes_ = bytes;
    v.writable_ = true;
    return v;
  }

  /// Synthetic buffer: `addr` is any nonzero stable identity the workload
  /// chooses (it feeds the registration-cache / MMU / reuse models).
  static View synth(std::uint64_t addr, std::uint64_t bytes) {
    View v;
    v.addr_ = addr;
    v.bytes_ = bytes;
    v.writable_ = true;
    return v;
  }

  std::uint64_t addr() const { return addr_; }
  std::uint64_t bytes() const { return bytes_; }
  std::byte* data() const { return data_; }
  bool synthetic() const { return data_ == nullptr; }
  bool writable() const { return writable_; }

  /// True once the model-visible address has been rebased onto the MPI
  /// layer's canonical address space (see Mpi::canon).
  bool canonical() const { return canon_; }

  /// Copy of this view with the model-visible address replaced by a
  /// canonical one. The payload pointer is untouched; only the identity
  /// fed to the registration-cache / MMU / reuse models changes.
  View rebased(std::uint64_t addr) const {
    View v = *this;
    v.addr_ = addr;
    v.canon_ = true;
    return v;
  }

 private:
  std::uint64_t addr_ = 0;
  std::byte* data_ = nullptr;
  std::uint64_t bytes_ = 0;
  bool writable_ = false;
  bool canon_ = false;
};

/// Copy payload between views where both sides are real. `bytes` is the
/// wire size (min of the two views enforced by the caller).
inline void copy_payload(const View& src, const View& dst,
                         std::uint64_t bytes) {
  if (src.synthetic() || dst.synthetic() || bytes == 0) return;
  std::memcpy(dst.data(), src.data(), static_cast<std::size_t>(bytes));
}

/// A sender's bytes buffered between send and receive (eager staging, a
/// shm ring slot, the Elan system buffer), so the sender may reuse its
/// view before delivery. Empty for synthetic or zero-length views.
using Payload = std::vector<std::byte>;

/// Buffer `src`'s bytes into `out`; leaves `out` alone for synthetic or
/// zero-length views.
inline void capture_payload(const View& src, Payload& out) {
  if (!src.synthetic() && src.bytes() > 0) {
    out.assign(src.data(), src.data() + src.bytes());
  }
}

/// Copy a buffered payload out into a receive buffer: the message's
/// `bytes`, truncated to the buffer. No-op when either side is empty.
inline void copy_buffered(const Payload& src, const View& dst,
                          std::uint64_t bytes) {
  if (dst.synthetic() || src.empty()) return;
  std::memcpy(dst.data(), src.data(),
              static_cast<std::size_t>(std::min(bytes, dst.bytes())));
}

/// Message envelope used for matching.
struct Envelope {
  Rank src = 0;
  Rank dst = 0;
  Tag tag = 0;
  std::uint64_t bytes = 0;
};

constexpr bool matches(Rank want_src, Tag want_tag, const Envelope& env) {
  return (want_src == kAnySource || want_src == env.src) &&
         (want_tag == kAnyTag || want_tag == env.tag);
}

}  // namespace mns::mpi
