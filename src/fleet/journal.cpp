#include "fleet/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "core/output/json_output.hpp"
#include "core/output/report_io.hpp"

namespace mt4g::fleet {
namespace {

std::string errno_text() { return std::strerror(errno); }

// v2: reports price every chase with the one cost model; a v1 record's
// `meta` cycles are stale, so its job reruns.
constexpr int kJournalVersion = 2;

}  // namespace

RunJournal::~RunJournal() { close(); }

RunJournal::RunJournal(RunJournal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      error_(std::move(other.error_)) {}

RunJournal& RunJournal::operator=(RunJournal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    error_ = std::move(other.error_);
  }
  return *this;
}

RunJournal RunJournal::open(const std::string& path, bool truncate) {
  RunJournal journal;
  journal.fd_ = ::open(path.c_str(),
                       O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0),
                       0644);
  if (journal.fd_ < 0) {
    throw std::runtime_error("journal: cannot open '" + path +
                             "': " + errno_text());
  }
  journal.path_ = path;
  return journal;
}

void RunJournal::append(const JobResult& result) {
  if (!error_.empty()) throw std::runtime_error(error_);
  if (fd_ < 0) fail("journal: append on a closed journal");
  json::Object record;
  record.emplace_back("v", kJournalVersion);
  record.emplace_back("key", result.job.key());
  if (result.ok) {
    record.emplace_back("report", core::to_json(result.report));
  } else {
    record.emplace_back("error", result.error);
  }
  const std::string line =
      json::Value(std::move(record)).dump(-1, /*exact=*/true) + "\n";
  // One full-line write; O_APPEND makes it atomic with respect to our own
  // earlier records, and the fsync pins it before the coordinator proceeds —
  // the invariant the torn-tail-tolerant loader depends on.
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("journal: write to '" + path_ + "' failed: " + errno_text());
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    fail("journal: fsync of '" + path_ + "' failed: " + errno_text());
  }
}

void RunJournal::fail(const std::string& message) {
  error_ = message;
  throw std::runtime_error(error_);
}

void RunJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::map<std::string, JournalEntry> load_journal(const std::string& path,
                                                std::size_t* outdated) {
  std::map<std::string, JournalEntry> entries;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (::access(path.c_str(), F_OK) != 0) return entries;  // no journal yet
    throw std::runtime_error("journal: cannot read '" + path + "'");
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const bool complete = !in.eof();  // getline ate a terminating '\n'
    const json::ParseResult parsed = json::parse(line);
    if (!parsed.ok()) {
      // An unparseable *final* line is the torn tail of a killed run — drop
      // it, the job reruns. Anywhere else it means the file is not a journal.
      if (!complete) return entries;
      throw std::runtime_error("journal: '" + path + "' line " +
                               std::to_string(line_no) +
                               " is not JSON: " + parsed.error.message);
    }
    const json::Value& doc = *parsed.value;
    const json::Value* version = doc.find("v");
    const json::Value* key = doc.find("key");
    if (!doc.is_object() || version == nullptr || !version->is_int() ||
        key == nullptr || !key->is_string()) {
      throw std::runtime_error("journal: '" + path + "' line " +
                               std::to_string(line_no) +
                               " is not a journal record");
    }
    if (version->as_int() == 1) {
      if (outdated != nullptr) ++*outdated;
      continue;
    }
    if (version->as_int() != kJournalVersion) {
      throw std::runtime_error("journal: '" + path + "' line " +
                               std::to_string(line_no) +
                               " has unsupported version " +
                               std::to_string(version->as_int()));
    }
    JournalEntry entry;
    const json::Value* report = doc.find("report");
    const json::Value* error = doc.find("error");
    if (report != nullptr && report->is_object()) {
      try {
        entry.report = core::from_json(*report);
        entry.ok = true;
      } catch (const std::exception&) {
        // A structurally intact record with an unreadable report can only be
        // the torn tail (fsync interrupted mid-line yet newline present is
        // not possible for our writer, but be safe for hand-edited files).
        if (!complete) return entries;
        throw std::runtime_error("journal: '" + path + "' line " +
                                 std::to_string(line_no) +
                                 " carries an unreadable report");
      }
    } else if (error != nullptr && error->is_string()) {
      entry.error = error->as_string();
    } else {
      throw std::runtime_error("journal: '" + path + "' line " +
                               std::to_string(line_no) +
                               " has neither report nor error");
    }
    entries[key->as_string()] = std::move(entry);
  }
  return entries;
}

std::vector<std::size_t> apply_journal(
    const std::vector<DiscoveryJob>& jobs,
    const std::map<std::string, JournalEntry>& journaled,
    std::vector<JobResult>& results) {
  results.resize(jobs.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results[i].job = jobs[i];
    const auto it = journaled.find(jobs[i].key());
    if (it == journaled.end()) {
      pending.push_back(i);
      continue;
    }
    results[i].from_journal = true;
    results[i].ok = it->second.ok;
    if (it->second.ok) {
      results[i].report = it->second.report;
    } else {
      results[i].error = it->second.error;
    }
  }
  return pending;
}

}  // namespace mt4g::fleet
