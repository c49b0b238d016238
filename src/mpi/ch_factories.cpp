#include "mpi/ch_factories.hpp"

namespace mns::mpi {

namespace {

shm::ShmConfig ib_shm_config() {
  // ~1.6 us small-message intra-node latency (Fig. 9). Same cache
  // thrashing as the GM path, but MVAPICH only uses shm below 16 KB.
  auto copy = model::xeon_2003_memcpy();
  copy.dram_rate = 280e6;
  return shm::ShmConfig{
      .post_cost = sim::Time::ns(250),
      .poll_cost = sim::Time::ns(220),
      .visibility_delay = sim::Time::ns(200),
      .copy = copy,
  };
}

shm::ShmConfig gm_shm_config() {
  // ~1.3 us small-message intra-node latency; MPICH-GM's shm device is the
  // leanest of the three (Fig. 9). Large ping-ponged buffers thrash the
  // caches of BOTH CPUs (producer writes + consumer reads), so the
  // streaming rate is far below a single process's memcpy (Fig. 10 droop).
  auto copy = model::xeon_2003_memcpy();
  copy.dram_rate = 280e6;
  return shm::ShmConfig{
      .post_cost = sim::Time::ns(380),
      .poll_cost = sim::Time::ns(360),
      .visibility_delay = sim::Time::ns(200),
      .copy = copy,
  };
}

}  // namespace

RdvChannelConfig default_ch_ib_config() {
  return RdvChannelConfig{
      .name = "ch_ib",
      .eager_threshold = 2048,          // Fig. 2's bandwidth dip at 2 KB
      .smp_threshold = 16 << 10,        // shm below, NIC loopback above
      .o_send = sim::Time::ns(780),
      .o_recv = sim::Time::ns(700),
      .o_ctrl = sim::Time::ns(400),
      .o_match_entry = sim::Time::ns(900),
      .ctrl_bytes = 64,
      .shm = ib_shm_config(),
  };
}

RdvChannelConfig default_ch_gm_config() {
  return RdvChannelConfig{
      .name = "ch_gm",
      .eager_threshold = 16 << 10,      // Fig. 7: reuse-insensitive < 16 KB
      .smp_threshold = UINT64_MAX,      // shm for every intra-node size
      .o_send = sim::Time::ns(250),
      .o_recv = sim::Time::ns(400),
      .o_ctrl = sim::Time::ns(200),
      .o_match_entry = sim::Time::ns(250),
      .allreduce_recursive_doubling = true,  // MPICH 1.2.5 base
      .ctrl_bytes = 64,
      .shm = gm_shm_config(),
  };
}

std::unique_ptr<Device> make_ch_elan(Mpi& mpi, elan::ElanFabric& fabric,
                                     const ElanChannelConfig& cfg) {
  return std::make_unique<ElanChannel>(mpi, fabric, cfg);
}

}  // namespace mns::mpi
