"""simcheck: determinism analysis for the mpinetsim simulator.

The simulator's contract is determinism: a run is a pure function of
(config, seed), whatever --jobs, thread placement or host heap layout.
simcheck enforces that statically with two kinds of rule.

Pattern rules match the comment- and string-stripped text line by line,
over every C++ source file under --root:

  wall-clock       no std::chrono system/steady/high_resolution clocks,
                   time(), gettimeofday(), clock_gettime() — simulated
                   time comes from sim::Engine.
  randomness       no std::random_device, rand(), srand() — randomness
                   flows through the seeded generators in util/rng.hpp.
  stdout           no std::cout / std::cerr / printf in library code.
  threading        no std::thread / mutex / atomic / future / ... outside
                   a `sweep/` directory: parallelism lives only between
                   independent simulations (SweepRunner).
  fault-alloc      under `fault/`: no heap allocation and no <random>
                   engines or distributions (not bit-portable across
                   standard libraries) on the injector's per-packet paths.
  model-alloc      under `model/`: no std::make_shared / std::function;
                   the data path is pooled state machines.

Structural rules run over the IR that parse.py builds from the
translation units in compile_commands.json and the project headers they
include:

  ptr-key          std::map/std::set (and unordered cousins) keyed on a
                   pointer type — iteration order then depends on host
                   addresses.
  unordered-iter   iteration over an unordered_* container whose loop body
                   can leak the (host-hash-dependent) visit order into
                   sim-visible state: writes to members/globals, mutating
                   sink calls, order-sensitive early exits, or locals that
                   flow into the return value.
  hot-alloc        call-graph allocation proof: everything reachable from
                   the MsgFlow packet machine, the fault Injector's verdict
                   paths and Engine::step must be transitively free of
                   operator new / std::function construction / container
                   growth. Functions that own an *intentional, audited*
                   allocation boundary (slab refill, amortized heap growth)
                   carry the MNS_HOT annotation: their own body is exempt,
                   their callees are still checked.
  coro-ref-escape  a coroutine lambda with any capture (by reference or
                   by value: captures live in the closure, not the frame)
                   is legal only where it provably finishes before the
                   closure dies: awaited in place, the first argument of
                   the synchronous run() driver, or a named local that is
                   only ever co_awaited. Anything else (spawn() arguments,
                   returns, stored lambdas, call arguments) is flagged.
  shared-static    shared-state audit for SweepRunner (--jobs) threads,
                   which run independent simulations concurrently: every
                   namespace-scope/static/thread_local variable, classified
                   (mutable / per-thread / const-after-init), with the set
                   of event handlers that can reach it. Emitted as
                   simcheck_state.json. Mutable shared statics reachable
                   from a handler race across simulations and are
                   findings; per-thread and const-after-init state is
                   reported but legal.

Suppress a finding with `// simcheck-allow: <rule>` on its line or the
line above. The parser needs nothing beyond the Python stdlib, so the
check runs the same on every host; the fixture suite in
tests/simcheck_fixtures pins every rule.

`python3 tools/simcheck/cli.py --help` for usage.
"""

__version__ = "1.0"
