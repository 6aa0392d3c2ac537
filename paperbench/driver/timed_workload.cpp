#include "timed_workload.hpp"

#include "core/telemetry.hpp"

namespace paperbench {

using adcc::core::ModeEnv;
using adcc::core::WorkloadRecovery;

namespace {

/// Hides the bound core::Telemetry for the scope when `on`.
class Mute {
 public:
  explicit Mute(bool on) {
    if (on) bind_.emplace(nullptr, std::string());
  }

 private:
  std::optional<adcc::core::TelemetryBind> bind_;
};

}  // namespace

void TimedWorkload::begin_rep(SpanLog* log, int run, bool mute_telemetry) {
  log_ = log;
  run_ = run;
  mute_ = mute_telemetry;
  first_step_ = -1.0;
  last_wait_end_ = -1.0;
  crashes_ = 0;
  crash_unit_ = 0;
  crashed_in_step_ = false;
  recovery_ok_ = true;
  recovery_ = {};
  resuming_ = false;
  resume_span_ = -1;
}

void TimedWorkload::prepare(ModeEnv& env) {
  {
    const Mute mute(mute_);
    const SpanScope span(log_, "prepare", run_, track_);
    inner_.prepare(env);
  }
  env_ = &env;
  perf0_ = env.perf ? env.perf->stats() : adcc::nvm::PerfStats{};
  backend0_ = env.backend ? env.backend->stats() : adcc::checkpoint::BackendStats{};
  region0_ = env.region ? env.region->stats() : adcc::nvm::RegionStats{};
}

bool TimedWorkload::run_step() {
  if (first_step_ < 0) first_step_ = now_s();
  enter_resume();
  const Mute mute(mute_);
  const SpanScope span(log_, "run_step", run_, track_);
  try {
    return inner_.run_step();
  } catch (...) {
    crashed_in_step_ = true;  // A crash fired inside the unit.
    throw;
  }
}

void TimedWorkload::make_durable() {
  enter_resume();
  {
    const Mute mute(mute_);
    const SpanScope span(log_, "make_durable", run_, track_);
    inner_.make_durable();
  }
  leave_resume_if_done();
}

void TimedWorkload::wait_durable() {
  {
    const Mute mute(mute_);
    const SpanScope span(log_, "wait_durable", run_, track_);
    inner_.wait_durable();
  }
  last_wait_end_ = now_s();
}

void TimedWorkload::inject_crash() {
  if (resume_span_ >= 0) log_->close(resume_span_);
  resume_span_ = -1;
  resuming_ = false;
  crash_unit_ = inner_.units_done();
  ++crashes_;
  const Mute mute(mute_);
  const SpanScope span(log_, "inject_crash", run_, track_);
  inner_.inject_crash();
}

WorkloadRecovery TimedWorkload::recover() {
  WorkloadRecovery rec;
  {
    const Mute mute(mute_);
    const SpanScope span(log_, "recover", run_, track_);
    rec = inner_.recover();
  }
  // The invariants documented on WorkloadRecovery, with crash_unit = units
  // completed when the crash hit.
  if (rec.restart_unit > crash_unit_ + 1 || rec.units_lost + rec.restart_unit < crash_unit_ + 1) {
    recovery_ok_ = false;
  }
  recovery_.restart_unit = rec.restart_unit;
  recovery_.units_lost += rec.units_lost;
  recovery_.units_corrected += rec.units_corrected;
  recovery_.candidates_checked += rec.candidates_checked;
  recovery_.units_replayed += rec.units_replayed;
  recovery_.halo_bytes += rec.halo_bytes;
  // The runner re-executes up to the crash point, plus the interrupted unit
  // when the crash fired inside one.
  resume_to_ = crash_unit_ + (crashed_in_step_ ? 1 : 0);
  resuming_ = inner_.units_done() < resume_to_;
  crashed_in_step_ = false;
  return rec;
}

bool TimedWorkload::verify() {
  const Mute mute(mute_);
  const SpanScope span(log_, "verify", run_, track_);
  return inner_.verify();
}

void TimedWorkload::enter_resume() {
  if (resuming_ && log_ != nullptr && resume_span_ < 0) {
    resume_span_ = log_->open("resume", run_, track_);
  }
}

void TimedWorkload::leave_resume_if_done() {
  if (!resuming_ || inner_.units_done() < resume_to_) return;
  resuming_ = false;
  if (resume_span_ >= 0) log_->close(resume_span_);
  resume_span_ = -1;
}

}  // namespace paperbench
