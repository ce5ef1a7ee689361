// Host-time attribution by statistical sampling, with no external profiler.
//
// While armed, the process receives SIGPROF every `interval_us` of CPU
// time. The handler walks the interrupted stack and charges the sample to
// the innermost frame that belongs to a function in a measured dmv::<module>
// namespace (LockManager is split out of txn as its own layer). Frames of
// std:: templates, libc, and the shared helpers dmv::util / dmv::api are
// passed over, so e.g. a std::map lookup inside the scheduler counts as
// core. A stack with no such frame counts as Other, so the layer counts sum
// to the number of samples.
//
// Symbolisation is in-process: the executable's own ELF symbol table is
// read once, each function symbol is demangled and classified up front, and
// the handler only does a binary search per frame.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

enum class Layer : uint8_t {
  Workload,  // dmv::workload, dmv::tpcw: client generation, procedures
  Core,      // dmv::core: scheduler, engine node, persistence binding
  Net,
  Txn,       // dmv::txn other than the lock manager: write-set diff/apply
  Lock,      // dmv::txn::LockManager
  Mem,       // dmv::mem: lazy versioned apply, version aborts
  Storage,   // dmv::storage: RbTree, schema, page
  Disk,      // dmv::disk: persistence back-ends, WAL
  Sim,       // dmv::sim: DES kernel
  Obs,       // dmv::obs: the tracer itself (traced runs only)
  Other,     // anything else, including unmeasured modules
};
inline constexpr size_t kNumLayers = size_t(Layer::Other) + 1;

const char* layer_name(Layer l);

class Sampler {
 public:
  using Counts = std::array<uint64_t, kNumLayers>;

  // Loads and classifies the executable's function symbols.
  Sampler();
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Only one Sampler may be armed at a time.
  void start(int interval_us);
  void stop();

  Counts counts() const;
  uint64_t samples() const;
  // Function symbols loaded from the executable (0 = symbolisation failed).
  size_t symbol_count() const;

 private:
  bool armed_ = false;
};

}  // namespace perfbench
