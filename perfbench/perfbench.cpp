// Host-time benchmark runner for mpinetsim.
//
// Runs the cells of one workload back to back, each cell being one paper
// application on one cluster configuration in a fresh cluster::Cluster,
// and prints one JSON object per line: set-up samples, speed-reference
// samples, one record per cell run (host timings, public counters, a
// digest of the simulated output), layer-probe results and, for the traced
// run, the recorded spans.
// perfbench/run.py builds this binary, runs it, checks the records and
// turns them into the benchmark's metrics; see perfbench/README.md.
//
//   mns_perfbench --workload p2p-seq --seed 1 --seconds 30 --trace 0
//
// Everything is measured from outside the libraries: spans time this
// file's own calls into public functions, and counters are public
// accessors read at the same boundaries.

#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "cluster/cluster.hpp"
#include "elan/elan_fabric.hpp"
#include "fault/fault.hpp"
#include "gm/gm_fabric.hpp"
#include "ib/ib_fabric.hpp"
#include "model/bus.hpp"
#include "model/memcpy_model.hpp"
#include "model/node_hw.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace {

using namespace mns;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double host_now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// The transient fault plan of the collectives-faults workload.
constexpr const char* kFaultSpec = "drop:*:0.002;corrupt:*:0.001;regfail:*:0.01";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Reduced cells (test-size app inputs on 4 nodes, fewer repetitions):
  // used by the benchmark's own tests.
  bool short_mode = false;
};

struct Cell {
  std::string app;
  cluster::Net net;
  std::size_t nodes;
  int ppn;
  int partitions;
  bool faults;
};

const char* net_key(cluster::Net n) {
  switch (n) {
    case cluster::Net::kInfiniBand: return "ib";
    case cluster::Net::kMyrinet: return "myri";
    case cluster::Net::kQuadrics: return "qsn";
  }
  return "?";
}

std::vector<Cell> workload_cells(const Options& o) {
  using cluster::Net;
  const std::size_t n = o.short_mode ? 4 : 8;
  std::vector<Cell> cells;
  if (o.workload == "p2p-seq") {
    for (Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
      cells.push_back({"cg", net, n, 1, 1, false});
    }
  } else if (o.workload == "wavefront-k4") {
    // Quadrics is absent: its hardware broadcast demotes the cluster to
    // one partition, so it would not exercise the executor.
    for (Net net : {Net::kInfiniBand, Net::kMyrinet}) {
      cells.push_back({"s3d50", net, n, 1, 4, false});
    }
  } else if (o.workload == "collectives-faults") {
    for (Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
      cells.push_back({"ft", net, n, 2, 1, true});
    }
    for (Net net : {Net::kInfiniBand, Net::kMyrinet, Net::kQuadrics}) {
      cells.push_back({"mg", net, n, 1, 1, true});
    }
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  return cells;
}

// Untraced passes of a run: as many whole passes as fit in --seconds at
// the host seconds one pass took on the measurement box (4-vCPU VM; see
// README.md), and at least two, so every cell has a repetition to compare
// against.
int pass_count(const Options& o) {
  double pass_s = 0;
  if (o.workload == "p2p-seq") {
    pass_s = 7.8;
  } else if (o.workload == "wavefront-k4") {
    pass_s = 4.6;
  } else {
    pass_s = 4.9;
  }
  return std::max(2, static_cast<int>(o.seconds / pass_s));
}

cluster::ClusterConfig cell_config(const Cell& c, const Options& o) {
  cluster::ClusterConfig cfg;
  cfg.nodes = c.nodes;
  cfg.ppn = c.ppn;
  cfg.net = c.net;
  cfg.partitions = c.partitions;
  if (c.faults) {
    cfg.faults = fault::FaultPlan::parse(kFaultSpec);
    cfg.faults.set_seed(o.seed);
  }
  return cfg;
}

// --- CPU rotation ------------------------------------------------------------

// While alive, moves the thread that created it round every CPU it may run
// on, one CPU per kStep, and restores its affinity at the end.
//
// On a shared VM each vCPU slows down on its own: a memory-bound loop
// pinned to one vCPU swings by +-30% from one second to the next, and two
// vCPUs' swings do not correlate. A single-threaded cell left on one vCPU
// for seconds takes that vCPU's luck whole; rotated, it averages over all
// of them, as the 4-thread wavefront-k4 cells already do. Fifty
// migrations a second cost no measurable time: p2p-seq passes took about
// 8.0 s with and without rotation.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kStep{20};

  CpuRotation() : target_(pthread_self()) {
    CPU_ZERO(&all_);
    if (pthread_getaffinity_np(target_, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this] { rotate(); });
  }
  ~CpuRotation() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate() {
    std::unique_lock<std::mutex> lk(mu_);
    for (std::size_t i = 0;; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      pthread_setaffinity_np(target_, sizeof one, &one);
      if (cv_.wait_for(lk, kStep, [this] { return stop_; })) break;
    }
    pthread_setaffinity_np(target_, sizeof all_, &all_);
  }

  pthread_t target_;
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// --- box speed reference -----------------------------------------------------

// A fixed memory-bound loop that shares no code with the simulator: a
// pointer chase round one random cycle over 8 MiB, sampled (with CPU
// rotation) before every timed cell. The box has slow spells of a minute
// or two in which every vCPU runs the simulator 20-35% slower; a whole
// 30 s run falls inside one, so no median over the run's passes removes
// them. This loop slows down in the same spells (by about two thirds as
// much, or as much), so run.py divides each pass's time by the pass's
// reference speed relative to a calm box. See README.md.
//
// The loop runs in a child process, forked before the first cell, so the
// runner's heap and resident set stay as they were without it: the peak
// RSS is the runner's own, and cg/Quadrics's simulated time, which
// depends on the heap layout (README.md, Limitations), keeps showing it.
class SpeedReference {
 public:
  SpeedReference() {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0) throw std::runtime_error("speed reference: pipe");
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      throw std::runtime_error("speed reference: pipe");
    }
    std::fflush(stdout);  // the child must not repeat buffered output
    pid_ = fork();
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      _exit(serve(to_child[0], from_child[1]));
    }
    close(to_child[0]);
    close(from_child[1]);
    request_ = to_child[1];
    reply_ = from_child[0];
    if (pid_ < 0) {
      close(request_);
      close(reply_);
      throw std::runtime_error("speed reference: fork");
    }
  }
  // Closing the request pipe ends the child's loop; then reap it.
  ~SpeedReference() {
    close(request_);
    close(reply_);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  SpeedReference(const SpeedReference&) = delete;
  SpeedReference& operator=(const SpeedReference&) = delete;

  // Host nanoseconds per step of one sample.
  double sample() {
    const char go = 1;
    double ns = 0;
    if (write(request_, &go, 1) != 1 ||
        read(reply_, &ns, sizeof ns) != static_cast<ssize_t>(sizeof ns)) {
      throw std::runtime_error("speed reference: child process gone");
    }
    return ns;
  }

 private:
  static constexpr std::uint32_t kWords = (8u << 20) / 4;
  static constexpr int kSteps = 400000;

  // The child: builds the chain, then answers each request byte with one
  // sample until the request pipe closes.
  static int serve(int requests, int replies) {
    try {
      std::vector<std::uint32_t> next(kWords);
      for (std::uint32_t i = 0; i < kWords; ++i) next[i] = i;
      // Sattolo's algorithm: a uniformly random permutation with a single
      // cycle, so the chase never settles into a short, cached loop.
      std::uint64_t st = 88172645463325252ULL;
      for (std::uint32_t i = kWords - 1; i > 0; --i) {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        std::swap(next[i], next[st % i]);
      }
      std::uint32_t pos = 0;
      char go = 0;
      while (read(requests, &go, 1) == 1) {
        CpuRotation rotation;
        const double t0 = host_now();
        for (int k = 0; k < kSteps; ++k) {
          pos = next[pos];
          // Keeps the chase between the two clock reads: nothing else
          // observes it, so the compiler could otherwise move it past them.
          asm volatile("" : "+r"(pos));
        }
        const double ns = (host_now() - t0) * 1e9 / kSteps;
        if (write(replies, &ns, sizeof ns) != static_cast<ssize_t>(sizeof ns)) {
          return 1;
        }
      }
      return 0;
    } catch (...) {
      return 1;
    }
  }

  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

// --- spans -------------------------------------------------------------

struct Span {
  int id;
  int parent;  // 0 = root
  int trace;   // the root span's id: every span of one cell shares it
  std::string name;
  double start;
  double end;
};

// In-memory span recorder; spans are printed once, at exit. A null
// Tracer* means tracing is off and costs one branch per boundary.
class Tracer {
 public:
  int begin(const std::string& name, int parent) {
    const int id = static_cast<int>(spans_.size()) + 1;
    const int trace = parent == 0 ? id : spans_[parent - 1].trace;
    spans_.push_back({id, parent, trace, name, host_now(), 0.0});
    return id;
  }
  void end(int id) { spans_[id - 1].end = host_now(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Span guard that is a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, int parent)
      : t_(t), id_(t ? t->begin(name, parent) : 0) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (t_ && !closed_) t_->end(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
  bool closed_ = false;
};

// --- JSON output ---------------------------------------------------------

// Builds one flat JSON object; values are numbers, strings without
// control characters, or preformatted arrays.
class Json {
 public:
  Json& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  Json& u64(const char* k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const char* k, const std::string& v) {
    std::string q = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
    }
    return raw(k, q + "\"");
  }
  Json& raw(const char* k, const std::string& v) {
    s_ += (s_.empty() ? "{\"" : ",\"") + std::string(k) + "\":" + v;
    return *this;
  }
  void print() const { std::printf("%s}\n", s_.c_str()); }

 private:
  std::string s_;
};

// --- cells ---------------------------------------------------------------

// FNV-1a over the simulated outputs a host-only change must not move.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <class T>
  void add(T v) {
    add(&v, sizeof v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
  }
};

// Executor counters, published only as notes of the finalize audit
// report ("partition P: events=.. sent=.. received=.. batches=..
// lbts_rounds=..").
struct PdesNotes {
  std::uint64_t sent = 0;
  std::uint64_t batches = 0;
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> part_events;
};

PdesNotes parse_pdes_notes(const audit::AuditReport& rep) {
  PdesNotes out;
  for (const auto& n : rep.notes()) {
    int p = 0;
    unsigned long long ev = 0, sent = 0, recv = 0, batches = 0, rounds = 0;
    if (std::sscanf(n.message.c_str(),
                    "partition %d: events=%llu sent=%llu received=%llu "
                    "batches=%llu lbts_rounds=%llu",
                    &p, &ev, &sent, &recv, &batches, &rounds) == 6) {
      out.sent += sent;
      out.batches += batches;
      out.rounds = std::max<std::uint64_t>(out.rounds, rounds);
      out.part_events.push_back(ev);
    }
  }
  return out;
}

std::string u64_array(const std::vector<std::uint64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return s + "]";
}

// Point-to-point traffic of a cell run, for sizing the layer probes.
struct PtpVolume {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// Runs one cell (construct, run, optionally audit, destroy) and prints its
// record. `kind` is "cell" for timed runs and "ref" for the untimed K=1
// reference runs of the wavefront workload.
PtpVolume run_cell(const Cell& cell, const Options& o, const char* kind,
                   int pass, int partitions, Tracer* tr) {
  Json j;
  j.str("kind", kind)
      .u64("pass", static_cast<std::uint64_t>(pass))
      .u64("traced", tr ? 1 : 0)
      .str("app", cell.app)
      .str("net", net_key(cell.net))
      .u64("ppn", static_cast<std::uint64_t>(cell.ppn))
      .u64("partitions", static_cast<std::uint64_t>(partitions))
      .u64("faults", cell.faults ? 1 : 0);

  cluster::ClusterConfig cfg = cell_config(cell, o);
  cfg.partitions = partitions;
  const std::string label = cell.app + "." + net_key(cell.net);
  Scope cell_span(tr, "cell:" + label, 0);
  std::string error;
  PtpVolume ptp;
  // Partition threads inherit the creating thread's affinity, so only a
  // one-partition cell may be rotated; a partitioned cell spreads over the
  // CPUs by itself.
  std::unique_ptr<CpuRotation> rotation;
  if (partitions == 1) rotation = std::make_unique<CpuRotation>();
  try {
    const auto& spec = apps::find_app(cell.app);
    const double t0 = host_now();
    Scope ctor_span(tr, "ctor", cell_span.id());
    auto c = std::make_unique<cluster::Cluster>(cfg);
    ctor_span.close();
    const double t1 = host_now();
    if (!spec.ranks_ok(c->ranks())) {
      throw std::invalid_argument(cell.app + " cannot run on " +
                                  std::to_string(c->ranks()) + " ranks");
    }
    std::vector<apps::AppResult> results(static_cast<std::size_t>(c->ranks()));
    const auto mode = apps::Mode::kSkeleton;
    const auto& body = o.short_mode ? spec.run_test : spec.run_full;
    const sim::frame_pool::Stats fp0 = sim::frame_pool::stats();
    Scope run_span(tr, "run", cell_span.id());
    c->run([&](mpi::Comm& comm) -> sim::Task<void> {
      results[static_cast<std::size_t>(comm.rank())] = co_await body(comm, mode);
    });
    run_span.close();
    const double t2 = host_now();
    const sim::frame_pool::Stats fp1 = sim::frame_pool::stats();

    // Counters, read at the run/teardown boundary.
    std::uint64_t events = 0, cancelled = 0;
    std::vector<std::uint64_t> part_events;
    for (int p = 0; p < c->effective_partitions(); ++p) {
      const sim::Engine& e = c->partition_engine(p);
      events += e.events_processed();
      cancelled += e.events_cancelled();
      part_events.push_back(e.events_processed());
    }
    const model::NetFabric& f = c->fabric();
    const prof::RankStats tot = c->recorder().totals();
    bool verified = true;
    Digest d;
    for (const auto& r : results) {
      verified = verified && r.verified;
      d.add(r.app_seconds);
    }
    d.add(c->now().count_ps());
    d.add(f.messages_posted());
    d.add(f.messages_delivered());
    j.num("run_s", t2 - t1)
        .num("sim_s", results.empty() ? 0.0 : results[0].app_seconds)
        .u64("verified", verified ? 1 : 0)
        .str("digest", d.hex())
        .u64("eff_partitions", part_events.size())
        .u64("events", events)
        .u64("events_cancelled", cancelled)
        .raw("part_events", u64_array(part_events))
        .u64("frames_allocated", fp1.allocated - fp0.allocated)
        .u64("frame_pool_hits", fp1.pool_hits - fp0.pool_hits)
        .u64("posted", f.messages_posted())
        .u64("delivered", f.messages_delivered())
        .u64("errored", f.messages_errored())
        .u64("aborted", f.messages_aborted())
        .u64("pkts_dropped", f.packets_dropped())
        .u64("pkts_corrupted", f.packets_corrupted())
        .u64("pkts_retransmitted", f.packets_retransmitted())
        .u64("pkts_abandoned", f.packets_abandoned())
        .u64("express_msgs", f.express_messages())
        .u64("express_demotions", f.express_demotions())
        .u64("mpi_calls", tot.mpi_calls)
        .u64("ptp_calls", tot.ptp_calls)
        .u64("collective_calls", tot.collective_calls)
        .u64("intra_calls", tot.intra_calls)
        .u64("bytes", tot.total_bytes)
        .u64("ptp_bytes", tot.ptp_bytes);

    double audit_s = 0;
    if (tr) {
      // The finalize audit is the only public read-out of the PDES
      // executor counters; it runs in the traced pass only.
      const double a0 = host_now();
      Scope audit_span(tr, "audit", cell_span.id());
      audit::AuditReport rep = c->make_audit_report();
      rep.run();
      audit_span.close();
      audit_s = host_now() - a0;
      const PdesNotes pn = parse_pdes_notes(rep);
      j.u64("audit_violations", rep.violations().size())
          .u64("pdes_wire", pn.sent)
          .u64("pdes_batches", pn.batches)
          .u64("pdes_rounds", pn.rounds)
          .raw("pdes_part_events", u64_array(pn.part_events));
    }

    const double t3 = host_now();
    Scope dtor_span(tr, "dtor", cell_span.id());
    c.reset();
    dtor_span.close();
    const double t4 = host_now();
    j.num("ctor_s", t1 - t0).num("audit_s", audit_s).num("dtor_s", t4 - t3);
    ptp = {tot.ptp_calls, tot.ptp_bytes};
  } catch (const std::exception& e) {
    error = e.what();
  }
  rotation.reset();
  cell_span.close();
  j.str("error", error).print();
  std::fflush(stdout);
  return ptp;
}

// Constructs every cell's cluster `reps` times and prints the summed
// construction time of each repetition (set-up cost without a run).
void setup_samples(const std::vector<Cell>& cells, const Options& o,
                   int pass, int reps) {
  for (int r = 0; r < reps; ++r) {
    double sum = 0;
    for (const Cell& cell : cells) {
      const cluster::ClusterConfig cfg = cell_config(cell, o);
      const double t0 = host_now();
      auto c = std::make_unique<cluster::Cluster>(cfg);
      sum += host_now() - t0;
    }
    Json()
        .str("kind", "setup")
        .u64("pass", static_cast<std::uint64_t>(pass))
        .num("ctor_s", sum)
        .print();
  }
}

// --- layer probes ----------------------------------------------------------

// sim: a fixed population of self-rescheduling timers with varied delays,
// so the future-event queue does real sift work.
void probe_sim(Tracer* tr, int parent, std::uint64_t events) {
  Scope span(tr, "probe.sim", parent);
  sim::Engine eng;
  struct Timer {
    sim::Engine* eng;
    std::uint64_t* left;
    std::uint64_t state;
    void fire() {
      if (*left == 0) return;
      --*left;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto delay = sim::Time::ps(1 + static_cast<std::int64_t>(
                                               (state >> 33) % 100000));
      eng->after(delay, [this] { fire(); });
    }
  };
  std::uint64_t left = events;
  std::vector<Timer> timers(64);
  for (std::size_t i = 0; i < timers.size(); ++i) {
    timers[i] = Timer{&eng, &left, i + 1};
    timers[i].fire();
  }
  const double t0 = host_now();
  eng.run();
  const double dt = host_now() - t0;
  span.close();
  Json()
      .str("kind", "probe")
      .str("layer", "sim")
      .u64("units", eng.events_processed())
      .num("ns_per_unit", dt * 1e9 / static_cast<double>(eng.events_processed()))
      .print();
}

model::BusConfig probe_bus(cluster::Net net) {
  // The testbed's slots, as Cluster configures them by default.
  return net == cluster::Net::kQuadrics ? model::pci_66() : model::pcix_133();
}

// netfabric: 2-node ping-pong of `bytes`-sized messages posted straight to
// the fabric, so only the fabric packet path runs.
void probe_fabric(Tracer* tr, int parent, cluster::Net net,
                  std::uint64_t bytes, int round_trips) {
  Scope span(tr, std::string("probe.netfabric.net:") + net_key(net), parent);
  sim::Engine eng;
  std::vector<std::unique_ptr<model::NodeHw>> owned;
  std::vector<model::NodeHw*> nodes;
  for (int i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<model::NodeHw>(eng, probe_bus(net),
                                                    model::xeon_2003_memcpy()));
    nodes.push_back(owned.back().get());
  }
  std::unique_ptr<model::NetFabric> fab;
  switch (net) {
    case cluster::Net::kInfiniBand:
      fab = std::make_unique<ib::IbFabric>(eng, nodes, ib::default_ib_config(2));
      break;
    case cluster::Net::kMyrinet:
      fab = std::make_unique<gm::GmFabric>(eng, nodes, gm::default_gm_config(2));
      break;
    case cluster::Net::kQuadrics:
      fab = std::make_unique<elan::ElanFabric>(eng, nodes,
                                               elan::default_elan_config(2));
      break;
  }
  int left = 2 * round_trips;
  std::function<void(int)> send = [&](int src) {
    if (left-- == 0) return;
    model::NetMsg m;
    m.src = src;
    m.dst = 1 - src;
    m.bytes = bytes;
    m.src_addr = 0x100000 + static_cast<std::uint64_t>(src) * (64ULL << 20);
    m.dst_addr = 0x100000 + static_cast<std::uint64_t>(1 - src) * (64ULL << 20);
    m.remote_arrival = [&send, dst = m.dst] { send(dst); };
    fab->post(std::move(m));
  };
  const double t0 = host_now();
  send(0);
  eng.run();
  const double dt = host_now() - t0;
  const std::uint64_t msgs = fab->messages_delivered();
  span.close();
  Json()
      .str("kind", "probe")
      .str("layer", "netfabric")
      .str("net", net_key(net))
      .u64("bytes", bytes)
      .u64("units", msgs)
      .num("ns_per_unit", dt * 1e9 / static_cast<double>(msgs))
      .print();
}

// mpi: 2-rank Comm::send/recv ping-pong through Cluster::run; the same
// message pattern as probe_fabric plus the MPI device and matcher.
void probe_mpi(Tracer* tr, int parent, cluster::Net net, std::uint64_t bytes,
               int round_trips) {
  Scope span(tr, std::string("probe.mpi.net:") + net_key(net), parent);
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.net = net;
  cluster::Cluster c(cfg);
  const double t0 = host_now();
  c.run([bytes, round_trips](mpi::Comm& comm) -> sim::Task<void> {
    const int me = comm.rank();
    const mpi::View buf = mpi::View::synth(apps::synth_addr(me, 1), bytes);
    for (int i = 0; i < round_trips; ++i) {
      if (me == 0) {
        co_await comm.send(buf, 1, 7);
        co_await comm.recv(buf, 1, 7);
      } else {
        co_await comm.recv(buf, 0, 7);
        co_await comm.send(buf, 0, 7);
      }
    }
  });
  const double dt = host_now() - t0;
  const std::uint64_t msgs = 2ULL * static_cast<std::uint64_t>(round_trips);
  span.close();
  Json()
      .str("kind", "probe")
      .str("layer", "mpi")
      .str("net", net_key(net))
      .u64("bytes", bytes)
      .u64("units", msgs)
      .num("ns_per_unit", dt * 1e9 / static_cast<double>(msgs))
      .print();
}

// The workload's distinct networks, in first-seen order.
std::vector<cluster::Net> workload_nets(const std::vector<Cell>& cells) {
  std::vector<cluster::Net> out;
  for (const Cell& c : cells) {
    if (std::find(out.begin(), out.end(), c.net) == out.end()) {
      out.push_back(c.net);
    }
  }
  return out;
}

// Peak resident set of this process image. getrusage's ru_maxrss is not
// used: it keeps the high-water mark of the parent image across exec.
std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// --- entry point -------------------------------------------------------------

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--short") {
      o.short_mode = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

int run(const Options& o) {
  const std::vector<Cell> cells = workload_cells(o);

  // Untimed K=1 reference of every partitioned cell: the digest every
  // K>1 run must reproduce, and the baseline of pdes.speedup_vs_k1.
  for (const Cell& cell : cells) {
    if (cell.partitions > 1) run_cell(cell, o, "ref", 0, 1, nullptr);
  }

  if (!o.trace) {
    // A fixed number of passes, so the cells attempted (and which of them
    // are repetitions) depend on the arguments alone, never on host speed.
    const int passes = pass_count(o);
    SpeedReference reference;
    for (int pass = 0; pass < passes; ++pass) {
      for (const Cell& cell : cells) {
        std::printf("{\"kind\":\"speed\",\"pass\":%d,\"ns_per_step\":%.9g}\n",
                    pass, reference.sample());
        run_cell(cell, o, "cell", pass, cell.partitions, nullptr);
      }
      // Construction takes tens of microseconds, too little to time once
      // per pass; repetitions spread over the run give a steady median.
      setup_samples(cells, o, pass, o.short_mode ? 3 : 21);
    }
  } else {
    // One untraced pass as the overhead baseline, then the traced pass
    // and the probes.
    for (const Cell& cell : cells) {
      run_cell(cell, o, "cell", 0, cell.partitions, nullptr);
    }
    Tracer tracer;
    PtpVolume ptp;
    for (const Cell& cell : cells) {
      const PtpVolume v =
          run_cell(cell, o, "cell", 1, cell.partitions, &tracer);
      ptp.calls += v.calls;
      ptp.bytes += v.bytes;
    }
    // The fabric and MPI probes move the workload's mean point-to-point
    // message, so their difference is the MPI layer's cost per message.
    const std::uint64_t bytes =
        ptp.calls ? std::max<std::uint64_t>(1, ptp.bytes / ptp.calls) : 1024;
    const int trips = o.short_mode ? 200 : 2000;
    probe_sim(&tracer, 0, o.short_mode ? 100000 : 2000000);
    {
      Scope fab(&tracer, "probe.netfabric", 0);
      for (cluster::Net net : workload_nets(cells)) {
        probe_fabric(&tracer, fab.id(), net, bytes, trips);
      }
    }
    {
      Scope mpi_span(&tracer, "probe.mpi", 0);
      for (cluster::Net net : workload_nets(cells)) {
        probe_mpi(&tracer, mpi_span.id(), net, bytes, trips);
      }
    }
    for (const Span& sp : tracer.spans()) {
      Json()
          .str("kind", "span")
          .u64("id", static_cast<std::uint64_t>(sp.id))
          .u64("parent", static_cast<std::uint64_t>(sp.parent))
          .u64("trace", static_cast<std::uint64_t>(sp.trace))
          .str("name", sp.name)
          .num("start_s", sp.start)
          .num("end_s", sp.end)
          .print();
    }
  }
  Json().str("kind", "done").u64("peak_rss_kb", peak_rss_kb()).print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mns_perfbench: %s\n", e.what());
    return 2;
  }
}
