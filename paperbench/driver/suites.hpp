// The benchmark's three workloads: problem sizes, seed derivation, crash
// sites, and the output checks made apart from the program.
//
// A Suite owns one workload's problem instances — the workload every
// durability mode runs, its 4-shard group and its memsim twin — and the
// benchmark's own reference data, derived from the same seeds through the
// program's input generators but computed with the benchmark's own loops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/workload.hpp"

namespace paperbench {

/// Crash plans (core::parse_crash spellings) derived from the workload seed.
struct CrashPlans {
  std::string mid_unit;  ///< One mid-unit crash in the middle of the run.
  std::string sharded;   ///< One victim shard of four, at a mid-run commit.
  std::string emulated;  ///< One crash of the memsim twin.
};

/// A kernel rate computed from the problem's sizes and operation counts over
/// the program's own kernel stage time (core::Telemetry "kernel/..." scopes).
struct KernelRate {
  std::string metric;  ///< "kernels.spmv_gbps", ...
  std::string unit;
  double per_run = 0.0;    ///< Bytes, flops or lookups of one native run.
  std::string stage;       ///< Telemetry stage path timing that work.
};

class Suite {
 public:
  virtual ~Suite() = default;

  /// Builds the problem instances (timed as core.instance_s).
  virtual void build() = 0;
  /// Drops them again (before a repeated set-up).
  void release() {
    main_.reset();
    sharded_.reset();
    emulated_.reset();
  }
  adcc::core::Workload& main() { return *main_; }
  adcc::core::Workload& sharded() { return *sharded_; }
  adcc::core::Workload& emulated() { return *emulated_; }

  virtual CrashPlans plans() const = 0;
  /// Builds the benchmark's own reference data; not part of set-up.
  virtual void build_reference() = 0;
  /// Checks main()'s answer after a completed run; empty when correct, else
  /// what is wrong.
  virtual std::string check_main() = 0;
  virtual KernelRate kernel_rate() const = 0;
  /// One line stating the make-up of the inputs.
  virtual std::string inputs() const = 0;

 protected:
  std::unique_ptr<adcc::core::Workload> main_, sharded_, emulated_;
};

/// The suite for "cg-npb", "mm-abft" or "mc-xsbench"; nullptr for any other
/// name.
std::unique_ptr<Suite> make_suite(const std::string& name, std::uint64_t seed);

}  // namespace paperbench
