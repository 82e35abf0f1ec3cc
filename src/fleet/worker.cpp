#include "fleet/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "common/fault.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/proto.hpp"

namespace mt4g::fleet {
namespace {

/// Serialises every protocol line the worker emits and flushes per line —
/// the coordinator reads records as they happen, and the heartbeat thread
/// shares the stream with the job loop.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& out) : out_(out) {}

  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line;
    out_.flush();
  }

 private:
  std::ostream& out_;
  std::mutex mutex_;
};

/// Background heartbeat with a fault-injectable silence window.
class Heartbeat {
 public:
  Heartbeat(LineWriter& writer, std::uint32_t period_ms)
      : writer_(writer), period_ms_(period_ms) {
    if (period_ms_ > 0) {
      thread_ = std::thread([this] { loop(); });
    }
  }

  ~Heartbeat() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

  /// Suppresses beats for @p ms from now (the stall_heartbeat fault).
  void silence_for(std::uint64_t ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    if (until > silent_until_) silent_until_ = until;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      wake_.wait_for(lock, std::chrono::milliseconds(period_ms_));
      if (stop_) return;
      if (std::chrono::steady_clock::now() < silent_until_) continue;
      lock.unlock();
      writer_.write(encode_heartbeat());
      lock.lock();
    }
  }

  LineWriter& writer_;
  const std::uint32_t period_ms_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::chrono::steady_clock::time_point silent_until_{};
};

}  // namespace

int run_worker_loop(std::istream& in, std::ostream& out,
                    const WorkerConfig& config) {
  LineWriter writer(out);
  Heartbeat heartbeat(writer, config.heartbeat_ms);
  writer.write(encode_ready());

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string reason;
    const auto command = parse_worker_command(line, &reason);
    if (!command) {
      // A command stream the worker cannot parse cannot be resynchronised —
      // report why and die; the supervisor contains the death.
      std::cerr << "fleet-worker: unreadable command: " << reason << "\n";
      return 2;
    }
    if (command->type == WorkerCommand::Type::kShutdown) return 0;

    const std::string key = command->job.key();
    if (fault::faults_enabled()) {
      fault::Injector& injector = fault::Injector::instance();
      // Re-align this process's occurrence counters with the job's global
      // attempt history before consuming this visit — the cross-process
      // coherence contract (see worker.hpp).
      injector.advance(fault::kSiteWorkerJob, key, command->attempt - 1);
      injector.advance(fault::kSiteJobAttempt, key, command->attempt - 1);
      const fault::SiteActions actions =
          injector.actions(fault::kSiteWorkerJob, key);
      if (actions.stall_heartbeat_ms > 0) {
        heartbeat.silence_for(actions.stall_heartbeat_ms);
      }
      if (actions.sleep_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(actions.sleep_ms));
      }
      if (actions.crash) {
        // The injected hard death: no unwinding, no flush, exit code 137 —
        // what the supervisor would see after a real SIGKILL.
        std::_Exit(137);
      }
      if (actions.do_throw) {
        writer.write(encode_failed(
            command->index, key,
            actions.message.empty()
                ? "injected fault at fleet.worker.job key=" + key
                : actions.message,
            /*timed_out=*/false, /*permanent=*/false, /*wall_seconds=*/0.0));
        continue;
      }
    }

    // Exactly one attempt, classified by the same run_attempt() an
    // in-process sweep uses; the coordinator owns the retry budget.
    const AttemptOutcome outcome = run_attempt(
        command->job, command->timeout_seconds, command->attempt);
    writer.write(outcome.ok ? encode_done(command->index, key, outcome.report,
                                          outcome.wall_seconds)
                            : encode_failed(command->index, key, outcome.error,
                                            outcome.timed_out,
                                            outcome.permanent,
                                            outcome.wall_seconds));
  }
  return 0;  // EOF between jobs: the coordinator went away; exit quietly
}

}  // namespace mt4g::fleet
