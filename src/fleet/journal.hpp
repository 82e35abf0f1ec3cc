// Append-only run journal — the fleet coordinator's crash-safe progress log.
//
// Every job a fleet run completes is appended as one line of compact JSON and
// fsync'd before the coordinator moves on:
//
//   {"v":2,"key":"<job key>","report":{...}}    succeeded job
//   {"v":2,"key":"<job key>","error":"..."}     job that exhausted retries
//
// Because records are whole lines committed with fsync, the journal survives
// a coordinator kill -9 with at most one torn record — the unterminated tail
// the loader silently drops (that job simply reruns). A later run started
// with --resume loads the journal, prefills the results of every journaled
// job (flagged JobResult::from_journal), and only schedules the remainder;
// apply_journal() keeps result slots in job order, so the resumed aggregate
// is byte-identical to an uninterrupted run's.
//
// The journal is an ordinary text file: inspectable with grep, mergeable with
// cat, and format-versioned per record. v1 records predate the one cost
// model, so their reports carry stale `meta` cycles: the loader skips them
// and their jobs rerun.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fleet/scheduler.hpp"

namespace mt4g::fleet {

/// One replayed journal record: a completed job's outcome keyed by job key.
struct JournalEntry {
  bool ok = false;
  core::TopologyReport report;  ///< valid when ok
  std::string error;            ///< final error text when !ok
};

/// Append side. Opens the file O_APPEND|O_CREAT and fsyncs after every
/// record, so a record is either fully durable or a droppable torn tail —
/// never silently half-trusted. The first failed append is the journal's
/// last: a later record behind a torn one would make the file unreadable.
class RunJournal {
 public:
  RunJournal() = default;
  ~RunJournal();
  RunJournal(RunJournal&& other) noexcept;
  RunJournal& operator=(RunJournal&& other) noexcept;
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Opens @p path for appending (creating it if needed). @p truncate
  /// starts the journal over: the file is emptied in place (O_TRUNC), so a
  /// symlink or device at @p path stays what it is.
  /// @throws std::runtime_error when the file cannot be opened.
  static RunJournal open(const std::string& path, bool truncate = false);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Appends one completed-job record (line + fsync). Failed jobs are
  /// journaled too — --resume must not re-burn a retry budget the previous
  /// run already exhausted. Skipped/cancelled jobs are NOT journaled: a
  /// resumed run should attempt them.
  /// @throws std::runtime_error when the journal is closed, or when this or
  /// an earlier write or fsync failed (the first failure is kept in error()).
  void append(const JobResult& result);

  /// Why the first failed append failed; empty while every append so far
  /// is durable.
  const std::string& error() const { return error_; }

  void close();

 private:
  [[noreturn]] void fail(const std::string& message);

  int fd_ = -1;
  std::string path_;
  std::string error_;
};

/// Loads every intact record of a journal file; keyed by job key, later
/// records win (a resumed run re-journals nothing, but concatenated journals
/// stay well-defined). A missing file is an empty journal; a torn or garbage
/// trailing line is dropped. v1 records are skipped as if absent and counted
/// in @p outdated (when non-null). Only a line that is valid JSON with the
/// wrong shape or a version above 2 is an error — that means a foreign file,
/// not a crash.
/// @throws std::runtime_error on unreadable files or foreign content.
std::map<std::string, JournalEntry> load_journal(
    const std::string& path, std::size_t* outdated = nullptr);

/// Prefills @p results (resized to jobs.size()) with the journaled outcome of
/// every job whose key appears in @p journaled, marking them from_journal,
/// and returns the indices of the jobs that still need to run. Duplicate keys
/// in the job list all resolve from the same entry — same-key jobs are the
/// same work by definition (job.hpp).
std::vector<std::size_t> apply_journal(
    const std::vector<DiscoveryJob>& jobs,
    const std::map<std::string, JournalEntry>& journaled,
    std::vector<JobResult>& results);

}  // namespace mt4g::fleet
