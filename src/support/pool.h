// Host parallelism for the measurement harness (src/workloads/measure.h),
// the RIPE matrices and the bench binaries: every caller runs one flat batch
// of independent indices, so one call that starts, drains and joins its own
// threads is all the machinery there is.
#ifndef CPI_SRC_SUPPORT_POOL_H_
#define CPI_SRC_SUPPORT_POOL_H_

#include <cstddef>
#include <functional>

namespace cpi {

// std::thread::hardware_concurrency(), at least 1.
int DefaultJobs();

// Runs body(i) for every i in [0, n) on min(jobs, n) executors: the calling
// thread plus the threads this call starts and joins before returning.
// `jobs` counts executors, not helper threads; jobs <= 0 selects
// DefaultJobs(), and jobs == 1 runs every index in order on the calling
// thread without starting one. Every index runs exactly once; if bodies
// throw, the exception from the lowest-numbered index is rethrown after all
// indices finished, whatever the scheduling. A body may itself call
// ParallelFor: each call owns its threads, so nesting cannot deadlock. If a
// thread fails to start, the executors already running cover every index.
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body);

}  // namespace cpi

#endif  // CPI_SRC_SUPPORT_POOL_H_
