// Regression tests for the MPI devices' point-to-point paths: every
// message kind the devices handle (intra-node shm/loopback, inter-node
// eager, rendezvous, MPI_Ssend, a rendezvous whose handshake arrives while
// the receiver computes, the nic_progress ablation) on ch_ib, ch_gm and
// ch_elan, each with the receive posted first and with the message
// arriving unexpected, all with real payloads; arrivals matched against
// several posted receives (the posted-queue scan cost); plus faulted runs (a
// registration-failure plan that forces the eager fallback and the
// re-pin, and a dead link that sends error envelopes to a posted and an
// unexpected receive).
//
// Each run is reduced to a digest of every observable: per request the
// instant its wait returned, its Status fields and (receives) a checksum
// of the received bytes, each rank's charged CPU time, and the final
// simulated clock. A change that moves any completion by one picosecond
// or any payload byte shows here; re-record only for an intended model
// change. The engine's event count is pinned beside each digest (host
// work, not an observable; see packet_path_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"

namespace {

using namespace mns;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Net;
using mpi::Comm;
using mpi::Status;
using mpi::View;
using sim::Task;
using sim::Time;

enum class Kind {
  kShm,          // intra-node: shm below smp_threshold (ch_elan: loopback)
  kEager,        // inter-node, below every eager/buffered threshold
  kRendezvous,   // inter-node, above every threshold
  kSsend,        // MPI_Ssend of a small message
  kComputing,    // rendezvous whose handshake lands while the rank computes
  kNicProgress,  // kComputing with the nic_progress ablation
  kManyPosted,   // eager + rendezvous arrivals scan several posted receives
  kRegFail,      // every pin fails: eager fallback and re-pin
  kLinkDown,     // 0->1 dies: error envelopes to posted + unexpected
};

// How the receiver meets the message.
enum class Order {
  kPosted,           // receive posted first; the sender starts 20 us late
  kProbed,           // arrives unexpected while the receiver polls in MPI
  kPostedComputing,  // receive posted, then the receiver computes
  kComputed,         // arrives unexpected while the receiver computes
  kPostedAhead,      // every such receive is posted before the sender
                     // starts; the receiver then computes, so the
                     // arrivals queue up and each is matched against
                     // the receives still posted
};

struct Leg {
  std::uint64_t bytes;
  Order order;
  bool ssend = false;
};

constexpr std::uint64_t kLarge = 96 << 10;

std::vector<Leg> legs_of(Kind kind) {
  switch (kind) {
    case Kind::kShm:
      return {{512, Order::kPosted}, {512, Order::kProbed},
              {8192, Order::kPosted}, {8192, Order::kProbed}};
    case Kind::kEager:
      return {{1000, Order::kPosted}, {1000, Order::kProbed}};
    case Kind::kRendezvous:
      return {{kLarge, Order::kPosted}, {kLarge, Order::kProbed}};
    case Kind::kSsend:
      return {{256, Order::kPosted, true}, {256, Order::kProbed, true}};
    case Kind::kComputing:
    case Kind::kNicProgress:
      return {{kLarge, Order::kPostedComputing}, {kLarge, Order::kComputed}};
    case Kind::kManyPosted:
      return {{1000, Order::kPostedAhead}, {1000, Order::kPostedAhead},
              {kLarge, Order::kPostedAhead}, {kLarge, Order::kPostedAhead}};
    case Kind::kRegFail:
      return {{kLarge, Order::kPosted}, {kLarge, Order::kProbed},
              {kLarge, Order::kPosted, true}, {kLarge, Order::kProbed, true}};
    case Kind::kLinkDown:
      return {{1000, Order::kPosted}, {kLarge, Order::kPosted},
              {1000, Order::kComputed}, {kLarge, Order::kComputed}};
  }
  return {};
}

struct RunResult {
  std::vector<std::uint64_t> words;  // every observable, in a fixed order
  std::vector<Status> recv_status;   // per leg, for the scenario checks
  std::uint64_t events = 0;          // engine events run (not digested)

  /// FNV-1a over `words`.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t w : words) {
      for (int i = 0; i < 8; ++i) {
        h ^= (w >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t checksum(const std::vector<unsigned char>& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : b) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void record(std::vector<std::uint64_t>& out, Time at, const Status& st) {
  out.push_back(static_cast<std::uint64_t>(at.count_ps()));
  out.push_back(static_cast<std::uint64_t>(st.source));
  out.push_back(static_cast<std::uint64_t>(st.tag));
  out.push_back(st.bytes);
  out.push_back(static_cast<std::uint64_t>(st.error));
}

RunResult run_kind(Net net, Kind kind) {
  ClusterConfig cfg;
  // kShm puts both ranks on one node; everything else crosses the fabric.
  cfg.nodes = kind == Kind::kShm ? 1 : 2;
  cfg.ppn = kind == Kind::kShm ? 2 : 1;
  cfg.net = net;
  if (kind == Kind::kNicProgress) {
    cfg.tweak_channel = [](mpi::RdvChannelConfig& c) { c.nic_progress = true; };
  }
  if (kind == Kind::kRegFail) {
    cfg.faults = fault::FaultPlan::parse("seed:3;regfail:*:1");
  }
  if (kind == Kind::kLinkDown) {
    cfg.faults = fault::FaultPlan::parse("linkdown:0-1:10");
  }
  // A dead link's error envelope takes the fabric's whole retry budget
  // to arrive; the unexpected leg computes past it.
  const Time think = kind == Kind::kLinkDown ? Time::ms(20) : Time::ms(1);
  const std::vector<Leg> legs = legs_of(kind);

  // Every buffer lives for the whole run. Mpi::canon gives a buffer its
  // canonical region by host start address, so a buffer freed and
  // re-allocated per leg would share an earlier leg's region (and its
  // pin-down cache entry) only when the allocator happened to reuse the
  // address.
  std::vector<std::vector<unsigned char>> send_bufs;
  std::vector<std::vector<unsigned char>> recv_bufs;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    std::vector<unsigned char> buf(legs[i].bytes);
    for (std::size_t b = 0; b < buf.size(); ++b) {
      buf[b] = static_cast<unsigned char>(b * 7 + i * 31 + 1);
    }
    send_bufs.push_back(std::move(buf));
    recv_bufs.emplace_back(legs[i].bytes, 0);
  }

  Cluster c(cfg);
  std::vector<std::uint64_t> sender_words;
  std::vector<std::uint64_t> receiver_words;
  RunResult res;
  res.recv_status.resize(legs.size());
  const bool ahead = std::any_of(legs.begin(), legs.end(), [](const Leg& l) {
    return l.order == Order::kPostedAhead;
  });
  c.run([&](Comm& comm) -> Task<> {
    std::vector<mpi::Request> reqs(legs.size());
    if (comm.rank() == 0) {
      if (ahead) co_await comm.compute(20e-6);
      for (std::size_t i = 0; i < legs.size(); ++i) {
        if (legs[i].order != Order::kPostedAhead) continue;
        reqs[i] = co_await comm.isend(
            View::in(send_bufs[i].data(), legs[i].bytes), 1,
            static_cast<mpi::Tag>(i + 1));
      }
      for (std::size_t i = 0; i < legs.size(); ++i) {
        const Leg& leg = legs[i];
        const mpi::Tag tag = static_cast<mpi::Tag>(i + 1);
        const View v = View::in(send_bufs[i].data(), leg.bytes);
        if (leg.order == Order::kPosted) co_await comm.compute(20e-6);
        if (leg.order == Order::kPostedAhead) {
          const Status st = co_await comm.wait(reqs[i]);
          record(sender_words, comm.now(), st);
        } else if (leg.ssend) {
          co_await comm.ssend(v, 1, tag);
          record(sender_words, comm.now(), Status{});
        } else {
          mpi::Request r = co_await comm.isend(v, 1, tag);
          const Status st = co_await comm.wait(r);
          record(sender_words, comm.now(), st);
        }
      }
    } else if (comm.rank() == 1) {
      for (std::size_t i = 0; i < legs.size(); ++i) {
        if (legs[i].order != Order::kPostedAhead) continue;
        reqs[i] = co_await comm.irecv(
            View::out(recv_bufs[i].data(), legs[i].bytes), 0,
            static_cast<mpi::Tag>(i + 1));
      }
      if (ahead) co_await comm.compute(think.to_seconds());
      for (std::size_t i = 0; i < legs.size(); ++i) {
        const Leg& leg = legs[i];
        const mpi::Tag tag = static_cast<mpi::Tag>(i + 1);
        const View v = View::out(recv_bufs[i].data(), leg.bytes);
        Status st;
        switch (leg.order) {
          case Order::kPosted:
            st = co_await comm.recv(v, 0, tag);
            break;
          case Order::kProbed:
            co_await comm.probe(0, tag);
            st = co_await comm.recv(v, 0, tag);
            break;
          case Order::kPostedComputing: {
            mpi::Request r = co_await comm.irecv(v, 0, tag);
            co_await comm.compute(think.to_seconds());
            st = co_await comm.wait(r);
            break;
          }
          case Order::kComputed:
            co_await comm.compute(think.to_seconds());
            st = co_await comm.recv(v, 0, tag);
            break;
          case Order::kPostedAhead:
            st = co_await comm.wait(reqs[i]);
            break;
        }
        record(receiver_words, comm.now(), st);
        receiver_words.push_back(checksum(recv_bufs[i]));
        res.recv_status[i] = st;
      }
    }
  });

  res.words = sender_words;
  res.words.insert(res.words.end(), receiver_words.begin(),
                   receiver_words.end());
  for (int r = 0; r < c.ranks(); ++r) {
    res.words.push_back(
        static_cast<std::uint64_t>(c.cpu(r).compute_time().count_ps()));
    res.words.push_back(
        static_cast<std::uint64_t>(c.cpu(r).overhead_time().count_ps()));
  }
  res.words.push_back(static_cast<std::uint64_t>(c.now().count_ps()));
  res.events = c.engine().events_processed();
  return res;
}

struct Scenario {
  const char* name;
  Net net;
  Kind kind;
  std::uint64_t digest;
  std::uint64_t events;
};

// Print the name, not the raw bytes (see packet_path_test).
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class MpiPath : public ::testing::TestWithParam<Scenario> {};

TEST_P(MpiPath, MatchesRecordedDigest) {
  const Scenario& s = GetParam();
  const RunResult r = run_kind(s.net, s.kind);
  EXPECT_EQ(hex(r.digest()), hex(s.digest));
  EXPECT_EQ(r.events, s.events);
}

TEST_P(MpiPath, ReceivesMatchTheirSends) {
  const Scenario& s = GetParam();
  const std::vector<Leg> legs = legs_of(s.kind);
  const RunResult r = run_kind(s.net, s.kind);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Status& st = r.recv_status[i];
    EXPECT_EQ(st.source, 0) << "leg " << i;
    EXPECT_EQ(st.tag, static_cast<mpi::Tag>(i + 1)) << "leg " << i;
    EXPECT_EQ(st.bytes, legs[i].bytes) << "leg " << i;
    // Only the dead link surfaces errors, and there on every receive,
    // posted or unexpected.
    EXPECT_EQ(st.error,
              s.kind == Kind::kLinkDown ? mpi::kErrFabric : mpi::kErrNone)
        << "leg " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, MpiPath,
    ::testing::Values(
        Scenario{"IbShm", Net::kInfiniBand, Kind::kShm,
                 0x93f01870f0b4c4b2ULL, 35},
        Scenario{"IbEager", Net::kInfiniBand, Kind::kEager,
                 0xf0876af78fed66c7ULL, 57},
        Scenario{"IbRendezvous", Net::kInfiniBand, Kind::kRendezvous,
                 0x6fb302dac5f60e4aULL, 874},
        Scenario{"IbSsend", Net::kInfiniBand, Kind::kSsend,
                 0x7b63098ad1be0461ULL, 221},
        Scenario{"IbComputing", Net::kInfiniBand, Kind::kComputing,
                 0xe6d5d1daeb08ddbcULL, 569},
        Scenario{"IbNicProgress", Net::kInfiniBand, Kind::kNicProgress,
                 0x1fd29c363cf93588ULL, 568},
        Scenario{"IbManyPosted", Net::kInfiniBand, Kind::kManyPosted,
                 0x37aa3c936348d20bULL, 593},
        Scenario{"IbRegFail", Net::kInfiniBand, Kind::kRegFail,
                 0x80aee535b78d602aULL, 2216},
        Scenario{"IbLinkDown", Net::kInfiniBand, Kind::kLinkDown,
                 0x4d1c4fdca107835eULL, 84},
        Scenario{"GmShm", Net::kMyrinet, Kind::kShm,
                 0x5b0582295dac5115ULL, 29},
        Scenario{"GmEager", Net::kMyrinet, Kind::kEager,
                 0x6a42e6a8faf3e4ccULL, 88},
        Scenario{"GmRendezvous", Net::kMyrinet, Kind::kRendezvous,
                 0x7439e97f00c843a9ULL, 994},
        Scenario{"GmSsend", Net::kMyrinet, Kind::kSsend,
                 0x1e764ed1e70b222aULL, 226},
        Scenario{"GmComputing", Net::kMyrinet, Kind::kComputing,
                 0x41206c6fa41a5c13ULL, 751},
        Scenario{"GmNicProgress", Net::kMyrinet, Kind::kNicProgress,
                 0x1587d609d995dab8ULL, 750},
        Scenario{"GmManyPosted", Net::kMyrinet, Kind::kManyPosted,
                 0xb65791c44b60f37cULL, 794},
        Scenario{"GmRegFail", Net::kMyrinet, Kind::kRegFail,
                 0x38b60d16cf483705ULL, 3867},
        Scenario{"GmLinkDown", Net::kMyrinet, Kind::kLinkDown,
                 0x9d3a210fcc3f5790ULL, 150},
        Scenario{"ElanShm", Net::kQuadrics, Kind::kShm,
                 0x9f9c12dcd848bc8bULL, 485},
        Scenario{"ElanEager", Net::kQuadrics, Kind::kEager,
                 0x664247476220a6a7ULL, 93},
        Scenario{"ElanRendezvous", Net::kQuadrics, Kind::kRendezvous,
                 0x97c89a5dfa4946a7ULL, 2287},
        Scenario{"ElanSsend", Net::kQuadrics, Kind::kSsend,
                 0x558b7d19d0bf6e05ULL, 78},
        Scenario{"ElanComputing", Net::kQuadrics, Kind::kComputing,
                 0x965be0d842bf5b58ULL, 672},
        Scenario{"ElanManyPosted", Net::kQuadrics, Kind::kManyPosted,
                 0xf3f307d9a33c0524ULL, 728},
        Scenario{"ElanRegFail", Net::kQuadrics, Kind::kRegFail,
                 0x470bac7e314ab021ULL, 4572},
        Scenario{"ElanLinkDown", Net::kQuadrics, Kind::kLinkDown,
                 0x6f3c2fe05be432cdULL, 1016}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

}  // namespace
