#include "src/support/pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cpi {

int DefaultJobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& body) {
  const size_t executors = std::min(static_cast<size_t>(jobs <= 0 ? DefaultJobs() : jobs), n);
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  size_t error_index = n;
  std::exception_ptr error;
  // Claims indices until none remain; a lone executor claims them in order.
  auto drain = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(executors);
  for (size_t t = 1; t < executors; ++t) {
    try {
      threads.emplace_back(drain);
    } catch (...) {
      break;  // the executors already running drain every index
    }
  }
  drain();
  for (std::thread& t : threads) {
    t.join();
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace cpi
