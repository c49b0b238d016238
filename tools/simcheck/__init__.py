"""simcheck: semantic determinism analysis for the mpinetsim simulator.

Where tools/simlint.py enforces the determinism contract with per-line
regexes, simcheck reasons about *structure*: declarations and their types,
function bodies and the call graph, lambda captures and their escape
routes, statics and who reaches them. It ships the four rule families the
regexes cannot express:

  ptr-key          std::map/std::set (and unordered cousins) keyed on a
                   pointer type — iteration order then depends on host
                   addresses, the exact bug class mpi::Mpi::canon papers
                   over for regcache/MMU timings.
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
  pdes-static      Shared-state audit for SweepRunner (--jobs) threads,
                   which run independent simulations concurrently: every
                   namespace-scope/static/thread_local variable, classified
                   (mutable / per-thread / const-after-init), with the set
                   of event handlers that can reach it. Emitted as
                   simcheck_state.json. Mutable shared statics reachable
                   from a handler race across simulations and are
                   findings; per-thread and const-after-init state is
                   reported but legal.

Two interchangeable frontends feed the same IR:

  clang     libclang (python clang.cindex) over compile_commands.json —
            real AST, types and scopes. Used when the bindings and a
            loadable libclang are present.
  fallback  a token/scope analyzer with no dependencies beyond the Python
            stdlib. Runs everywhere (CI stays green on minimal hosts),
            understands this codebase's idioms, and is what the fixture
            suite pins down rule by rule.

`python3 tools/simcheck/cli.py --help` for usage.
"""

__version__ = "1.0"
