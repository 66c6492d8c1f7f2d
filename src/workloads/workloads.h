// Synthetic workload generators.
//
// The paper evaluates on SPEC CPU2006, the Phoronix suite, and a web-server
// stack — none of which can ship here. Each generator below reproduces the
// *pointer-usage profile* that drives CPI/CPS overhead for one benchmark the
// paper names (Table 2 correlates these fractions with Fig. 3's overheads):
// opcode-dispatch interpreters (perlbench), vtable-heavy C++ (omnetpp,
// xalancbmk, dealII), pointer-chasing (mcf), plain array number-crunching
// (milc, lbm, hmmer, libquantum), function-pointer-laden C (gcc, sjeng), and
// so on. Workload behaviour is deterministic given the input seed.
#ifndef CPI_SRC_WORKLOADS_WORKLOADS_H_
#define CPI_SRC_WORKLOADS_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/levee.h"
#include "src/ir/module.h"

namespace cpi::workloads {

struct Workload {
  std::string name;      // paper benchmark it models, e.g. "400.perlbench"
  std::string language;  // "C" or "C++" (Table 1 splits averages by language)
  // Builds a fresh module; `scale` controls run length (1 = bench size;
  // tests use smaller values).
  std::function<std::unique_ptr<ir::Module>(int scale)> build;
  core::Input input;  // deterministic input fed to every run
};

// The 19 C/C++ SPEC CPU2006 rows of Table 2.
const std::vector<Workload>& SpecCpu2006();

// A Phoronix-like "server setting" suite (Fig. 4).
const std::vector<Workload>& Phoronix();

// The three web-server scenarios of Table 4 (static page / wsgi / dynamic
// page).
const std::vector<Workload>& WebServer();

// The Table 4 scenarios re-run as multi-worker servers on the simulated
// thread scheduler, plus a producer/consumer pointer-chasing pair. Race-free
// by construction, so counters are deterministic at any scheduler quantum.
const std::vector<Workload>& ConcurrentServer();

// The epoll-style event-loop server: per-worker keep-alive connection slabs
// (handler function pointers in worker-homed heap arenas), pseudo-random
// ready batches, connection churn against the shared handler table. The
// driving workload of the suite's safe-store shard ablation (ablation_shards).
// Kept out of ConcurrentServer() so the recorded table4_concurrent baseline
// is untouched.
const std::vector<Workload>& EventLoop();

// The event loop scaled to connection churn across a retiring/respawning
// worker pool: thousands of keep-alive connections published through a
// shared cell table, a bounded per-slot handoff queue with backpressure,
// request batching, and worker generations that inherit their predecessors'
// connection cells — the workload where epoch-based shard-ownership
// migration (Config::migrate) pays and static ownership cannot. Drives the
// suite's ablation_churn table; kept out of EventLoop()/ConcurrentServer() so the
// recorded ablation_shards and table4_concurrent baselines are untouched.
const std::vector<Workload>& ChurnServer();

const Workload* FindWorkload(const std::string& name);

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_WORKLOADS_H_
