// TimedWorkload — a forwarding core::Workload that times every call the
// scenario runner makes into the workload it wraps.
//
// The runner keeps driving crash injection and recovery exactly as for any
// workload; the wrapper only observes. Per repetition it records
//   - the time to a solution: from the first run_step to the return of the
//     final wait_durable (prepare and the output check excluded),
//   - when a SpanLog is attached, one span per call (prepare, run_step,
//     make_durable, wait_durable, inject_crash, recover, verify), with the
//     re-execution after a recovery grouped under a "resume" span,
//   - the recover() results, checked against the invariants documented on
//     core::WorkloadRecovery,
//   - the mode substrate's counters (checkpoint backend, NVM arena, NVM
//     performance model) as they stood when the repetition was prepared.
#pragma once

#include <optional>

#include "checkpoint/backend.hpp"
#include "core/workload.hpp"
#include "nvm/nvm_region.hpp"
#include "nvm/perf_model.hpp"
#include "spans.hpp"

namespace paperbench {

class TimedWorkload final : public adcc::core::Workload {
 public:
  TimedWorkload(adcc::core::Workload& inner, int track) : inner_(inner), track_(track) {}

  /// Arms the next repetition: spans go to `log` under run id `run` (no spans
  /// when null); `mute_telemetry` hides any bound core::Telemetry from the
  /// wrapped calls, so an untraced repetition pays for no stage scopes.
  void begin_rep(SpanLog* log, int run, bool mute_telemetry);

  double solution_seconds() const { return last_wait_end_ - first_step_; }
  bool recovery_ok() const { return recovery_ok_; }
  std::size_t crashes() const { return crashes_; }
  /// Sum of every recover() result of the repetition.
  const adcc::core::WorkloadRecovery& recovery() const { return recovery_; }

  /// The substrate bound by the last prepare(); owned by the runner, valid
  /// until its next repetition.
  const adcc::core::ModeEnv* env() const { return env_; }
  const adcc::nvm::PerfStats& perf_at_prepare() const { return perf0_; }
  const adcc::checkpoint::BackendStats& backend_at_prepare() const { return backend0_; }
  const adcc::nvm::RegionStats& region_at_prepare() const { return region0_; }

  std::string name() const override { return inner_.name(); }
  std::size_t work_units() const override { return inner_.work_units(); }
  std::size_t units_done() const override { return inner_.units_done(); }
  void prepare(adcc::core::ModeEnv& env) override;
  bool run_step() override;
  void make_durable() override;
  void wait_durable() override;
  bool durability_pending() const override { return inner_.durability_pending(); }
  void inject_crash() override;
  adcc::core::WorkloadRecovery recover() override;
  bool verify() override;
  void tune_env(adcc::core::Mode mode, adcc::core::ModeEnvConfig& cfg) const override {
    inner_.tune_env(mode, cfg);
  }
  adcc::core::FaultSurface* fault() override { return inner_.fault(); }
  std::size_t shard_count() const override { return inner_.shard_count(); }
  void set_crash_scope(const adcc::core::CrashScope& scope) override {
    inner_.set_crash_scope(scope);
  }

 private:
  /// Opens the "resume" span at the first call after a recovery that still
  /// has destroyed units to re-execute.
  void enter_resume();
  /// Closes it once the re-execution reached the crash point again.
  void leave_resume_if_done();

  adcc::core::Workload& inner_;
  int track_;
  SpanLog* log_ = nullptr;
  int run_ = -1;
  bool mute_ = false;

  adcc::core::ModeEnv* env_ = nullptr;
  adcc::nvm::PerfStats perf0_;
  adcc::checkpoint::BackendStats backend0_;
  adcc::nvm::RegionStats region0_;

  double first_step_ = -1.0;
  double last_wait_end_ = -1.0;
  std::size_t crashes_ = 0;
  std::size_t crash_unit_ = 0;
  bool crashed_in_step_ = false;
  bool recovery_ok_ = true;
  adcc::core::WorkloadRecovery recovery_;
  std::size_t resume_to_ = 0;  ///< Units the re-execution must reach.
  bool resuming_ = false;
  int resume_span_ = -1;
};

}  // namespace paperbench
