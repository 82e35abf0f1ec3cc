#include "fleet/supervise.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fleet/coordinator.hpp"
#include "fleet/proto.hpp"

namespace mt4g::fleet {
namespace {

using Clock = std::chrono::steady_clock;

/// One supervised worker process and the coordinator's view of it.
struct Worker {
  pid_t pid = -1;
  int stdin_fd = -1;   ///< coordinator -> worker commands
  int stdout_fd = -1;  ///< worker -> coordinator records
  std::string buffer;  ///< partial line carried between reads
  bool ready = false;  ///< handshake line seen
  bool busy = false;
  std::size_t job_index = 0;   ///< valid while busy
  Clock::time_point last_activity;  ///< any complete line bumps this
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Human-readable death verdict from a waitpid status.
std::string describe_exit(int status) {
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  return "ended with status " + std::to_string(status);
}

/// Forks + execs one worker with its stdio wired to fresh pipes; false when
/// no pipe or process could be made. All coordinator-side descriptors are
/// close-on-exec, so workers never inherit each other's pipe ends (a crashed
/// sibling must produce a clean EOF).
bool spawn_worker(const std::vector<std::string>& argv, Worker& worker) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  const pid_t pid = ::pipe2(to_child, O_CLOEXEC) == 0 &&
                            ::pipe2(from_child, O_CLOEXEC) == 0
                        ? ::fork()
                        : -1;
  if (pid < 0) {
    for (int& fd : to_child) close_fd(fd);
    for (int& fd : from_child) close_fd(fd);
    return false;
  }
  if (pid == 0) {
    // Child: stdio onto the pipes (dup2 clears CLOEXEC), exec the worker.
    if (::dup2(to_child[0], STDIN_FILENO) < 0 ||
        ::dup2(from_child[1], STDOUT_FILENO) < 0) {
      ::_exit(127);
    }
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      c_argv.push_back(const_cast<char*>(arg.c_str()));
    }
    c_argv.push_back(nullptr);
    ::execvp(c_argv[0], c_argv.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  worker.pid = pid;
  worker.stdin_fd = to_child[1];
  worker.stdout_fd = from_child[0];
  worker.last_activity = Clock::now();
  return true;
}

/// Full line write to a worker's stdin; false on any failure (EPIPE after a
/// death — SIGPIPE is ignored for the duration of the run).
bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// SIGKILL + reap; returns the waitpid verdict. Safe on already-dead pids.
std::string kill_and_reap(Worker& worker) {
  if (worker.pid < 0) return "already reaped";
  ::kill(worker.pid, SIGKILL);
  int status = 0;
  while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
  }
  worker.pid = -1;
  close_fd(worker.stdin_fd);
  close_fd(worker.stdout_fd);
  return describe_exit(status);
}

/// Scoped SIGPIPE suppression: a worker dying between poll() and our write
/// must surface as EPIPE, not kill the coordinator.
class IgnoreSigpipe {
 public:
  IgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~IgnoreSigpipe() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_ {};
};

/// The live worker processes. The destructor asks every worker to shut down
/// (shutdown line + stdin EOF), gives the pool a moment, then kills and
/// reaps whatever is left — on every way out of run_supervised().
struct WorkerPool {
  std::vector<Worker> workers;

  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    for (Worker& worker : workers) {
      if (worker.stdin_fd >= 0) write_all(worker.stdin_fd, encode_shutdown());
      close_fd(worker.stdin_fd);
    }
    const Clock::time_point patience =
        Clock::now() + std::chrono::milliseconds(2000);
    for (Worker& worker : workers) {
      while (worker.pid >= 0 && Clock::now() < patience) {
        const pid_t rc = ::waitpid(worker.pid, nullptr, WNOHANG);
        if (rc == worker.pid || (rc < 0 && errno == ECHILD)) {
          worker.pid = -1;  // exited on its own
        } else {
          ::poll(nullptr, 0, 10);
        }
      }
      kill_and_reap(worker);
      close_fd(worker.stdout_fd);
    }
  }
};

struct QueueItem {
  std::size_t index = 0;
  Clock::time_point not_before;  ///< retry backoff gate
};

}  // namespace

std::vector<JobResult> run_supervised(const std::vector<DiscoveryJob>& jobs,
                                      const SupervisorOptions& options,
                                      std::vector<JobResult> prefilled) {
  if (options.worker_argv.empty()) {
    throw std::invalid_argument("run_supervised: worker_argv is empty");
  }
  Coordinator coordinator(jobs, options, std::move(prefilled));

  const std::uint32_t procs = std::max<std::uint32_t>(options.procs, 1);
  // Idle deaths (a worker that dies before ever being assigned work) signal
  // a broken worker command, not a broken job; after this many the pool is
  // declared unusable instead of fork-looping forever.
  const std::uint32_t max_idle_deaths = 3 * procs;

  // Journal replays and cache hits settle at once; the rest queue for the
  // workers in job order.
  std::deque<QueueItem> queue;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!coordinator.settle_early(i)) queue.push_back({i, Clock::now()});
  }
  const auto requeue = [&](std::size_t index,
                           std::optional<std::chrono::milliseconds> backoff) {
    if (backoff) queue.push_back({index, Clock::now() + *backoff});
  };

  IgnoreSigpipe sigpipe_guard;  // outlives the pool: its teardown writes
  WorkerPool pool;
  std::vector<Worker>& workers = pool.workers;
  bool spawn_allowed = true;
  std::uint32_t idle_deaths = 0;

  // A worker died or was executed. Its job, if it held one, ends the attempt
  // as a crash under the retry budget; the worker leaves the pool.
  const auto contain_death = [&](std::size_t worker_pos,
                                 const std::string& how) {
    Worker worker = std::move(workers[worker_pos]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(worker_pos));
    const std::string verdict = kill_and_reap(worker);
    if (!worker.busy) {
      ++idle_deaths;
      if (idle_deaths >= max_idle_deaths) spawn_allowed = false;
      return;
    }
    AttemptOutcome crash;
    crash.crashed = true;
    crash.error =
        "worker crashed (" + how + "; " + verdict + ") while running the job";
    requeue(worker.job_index,
            coordinator.end_attempt(worker.job_index, std::move(crash)));
  };

  // One worker -> coordinator record. False = protocol violation (the caller
  // kills the worker and contains the death).
  const auto handle_message = [&](Worker& worker,
                                  const std::string& line) -> bool {
    std::string reason;
    auto message = parse_worker_message(line, &reason);
    if (!message) return false;
    worker.last_activity = Clock::now();
    switch (message->type) {
      case WorkerMessage::Type::kReady:
        worker.ready = true;
        return true;
      case WorkerMessage::Type::kHeartbeat:
        return true;
      case WorkerMessage::Type::kDone:
      case WorkerMessage::Type::kFailed:
        break;
    }
    if (!worker.busy || message->index != worker.job_index ||
        message->key != jobs[worker.job_index].key()) {
      return false;  // a result for a job this worker does not hold
    }
    worker.busy = false;
    AttemptOutcome outcome;
    outcome.ok = message->type == WorkerMessage::Type::kDone;
    outcome.report = std::move(message->report);
    outcome.error = std::move(message->error);
    outcome.timed_out = message->timed_out;
    outcome.permanent = message->permanent;
    outcome.wall_seconds = message->wall_seconds;
    requeue(worker.job_index,
            coordinator.end_attempt(worker.job_index, std::move(outcome)));
    return true;
  };

  const auto drain_buffer = [&](std::size_t worker_pos) -> bool {
    Worker& worker = workers[worker_pos];
    std::size_t newline = worker.buffer.find('\n');
    while (newline != std::string::npos) {
      const std::string line = worker.buffer.substr(0, newline);
      worker.buffer.erase(0, newline + 1);
      if (!line.empty() && !handle_message(worker, line)) {
        contain_death(worker_pos, "sent an unreadable record");
        return false;
      }
      newline = worker.buffer.find('\n');
    }
    return true;
  };

  while (!coordinator.all_settled()) {
    // Graceful stop: drop the queue as skipped; in-flight attempts run out.
    if (coordinator.stopping()) {
      for (const QueueItem& item : queue) coordinator.skip(item.index);
      queue.clear();
    }

    // Keep the pool at strength while there is queued work.
    while (spawn_allowed && !queue.empty() && workers.size() < procs) {
      Worker worker;
      if (!spawn_worker(options.worker_argv, worker)) {
        ++idle_deaths;
        if (idle_deaths >= max_idle_deaths) spawn_allowed = false;
        break;
      }
      workers.push_back(std::move(worker));
    }

    // No pool and no way to build one: fail what remains, loudly.
    if (!queue.empty() && workers.empty() && !spawn_allowed) {
      for (const QueueItem& item : queue) {
        AttemptOutcome unusable;
        unusable.permanent = true;
        unusable.error =
            "worker pool unusable: workers died or failed to spawn " +
            std::to_string(idle_deaths) + " times before taking a job";
        coordinator.end_attempt(item.index, std::move(unusable));
      }
      queue.clear();
      continue;
    }

    // Assign ready queue items to idle ready workers.
    const Clock::time_point now = Clock::now();
    for (std::size_t w = 0; w < workers.size() && !queue.empty(); ++w) {
      Worker& worker = workers[w];
      if (!worker.ready || worker.busy) continue;
      const auto item = std::find_if(
          queue.begin(), queue.end(),
          [&](const QueueItem& q) { return q.not_before <= now; });
      if (item == queue.end()) break;
      const std::size_t index = item->index;
      queue.erase(item);
      worker.busy = true;
      worker.job_index = index;
      const std::string assignment = encode_job_assignment(
          jobs[index], index, coordinator.start_attempt(index),
          options.retry.timeout_seconds);
      if (!write_all(worker.stdin_fd, assignment)) {
        // Died between poll and write: EOF handling would find it anyway,
        // but the failed write already proves it.
        contain_death(w, "pipe closed before the assignment arrived");
        --w;  // the vector shifted; re-examine this slot
      }
    }

    if (coordinator.all_settled()) break;
    if (workers.empty()) continue;  // spawn failed; retry the outer loop

    // Wait for worker records; cap the wait so backoff gates, liveness
    // checks and cancellation stay responsive.
    std::vector<struct pollfd> fds;
    fds.reserve(workers.size());
    for (const Worker& worker : workers) {
      fds.push_back({worker.stdout_fd, POLLIN, 0});
    }
    int timeout_ms = 100;
    for (const QueueItem& item : queue) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                            item.not_before - now)
                            .count();
      timeout_ms = std::min<int>(
          timeout_ms, static_cast<int>(std::max<long long>(wait, 0)) + 1);
    }
    const int poll_rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (poll_rc < 0 && errno != EINTR) break;  // poll itself broke; bail out

    // Read every worker with data or EOF. Iterate by pid (positions shift
    // when contain_death erases) — match fds back to current workers.
    for (const struct pollfd& pfd : fds) {
      if (pfd.revents == 0) continue;
      const auto pos = std::find_if(
          workers.begin(), workers.end(),
          [&](const Worker& w) { return w.stdout_fd == pfd.fd; });
      if (pos == workers.end()) continue;  // already contained this round
      const std::size_t worker_pos =
          static_cast<std::size_t>(pos - workers.begin());
      char chunk[4096];
      const ssize_t n = ::read(pfd.fd, chunk, sizeof(chunk));
      if (n > 0) {
        workers[worker_pos].buffer.append(chunk,
                                          static_cast<std::size_t>(n));
        drain_buffer(worker_pos);
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        contain_death(worker_pos, n == 0 ? "stdout closed mid-run"
                                         : "stdout read failed");
      }
    }

    // Liveness: a worker silent past the timeout is dead to us, whatever
    // state its process is in.
    if (options.heartbeat_timeout_seconds > 0) {
      const Clock::time_point deadline =
          Clock::now() - std::chrono::milliseconds(static_cast<long long>(
                             options.heartbeat_timeout_seconds * 1000.0));
      for (std::size_t w = 0; w < workers.size();) {
        if (workers[w].last_activity < deadline) {
          contain_death(w, "missed its heartbeat");
        } else {
          ++w;
        }
      }
    }
  }

  return coordinator.take_results();
}

}  // namespace mt4g::fleet
