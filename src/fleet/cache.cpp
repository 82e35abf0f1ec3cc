#include "fleet/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/json_parse.hpp"
#include "core/output/json_output.hpp"
#include "core/output/report_io.hpp"

namespace mt4g::fleet {
namespace {

// v2: job keys gained the spec=<hex16> model-content component, so every v1
// entry is keyed without the spec identity and must not be served.
// v3: reports price every chase as the real tool would run it (one cost
// model, no attribution buckets), so v2 entries carry stale meta cycles.
constexpr int kCacheFileVersion = 3;

/// Advisory exclusive lock on `<target>.lock`, held for a whole load or
/// save+merge cycle. The sidecar (not the target itself) carries the flock
/// because the target is replaced by rename — a lock on a replaced inode
/// guards nothing. flock conflicts between open descriptions, so the lock
/// serialises concurrent fleet *processes* sharing one cache file; within a
/// process it must never nest (it would self-deadlock).
class ScopedFileLock {
 public:
  explicit ScopedFileLock(const std::string& target) {
    if (target.empty()) return;
    fd_ = ::open((target + ".lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0) return;  // unlockable filesystem: degrade, don't fail
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno != EINTR) break;
    }
  }
  ~ScopedFileLock() {
    if (fd_ >= 0) ::close(fd_);  // closing the description drops the flock
  }
  ScopedFileLock(const ScopedFileLock&) = delete;
  ScopedFileLock& operator=(const ScopedFileLock&) = delete;

 private:
  int fd_ = -1;
};

/// Atomic whole-file commit: unique temp (pid-suffixed, so two processes
/// racing on one directory never clobber each other's staging) + rename.
bool commit_file(const std::string& path, const std::string& payload) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << payload;
    if (!out.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

/// Writes the skipped raw entries and their reasons next to the cache file so
/// a corrupted entry is inspectable (and recoverable by hand) instead of
/// silently gone. Items already quarantined (by this or another process) are
/// kept — the sidecar is merged, committed tmp-then-rename, and must be
/// called under the cache file's ScopedFileLock. Best-effort: quarantine
/// failures never fail the load.
void write_quarantine(const std::string& path, const std::string& source,
                      const std::vector<CacheLoadIssue>& issues,
                      const std::vector<json::Value>& raw_entries) {
  json::Array items;
  // Preserve the existing sidecar's items: two processes salvaging the same
  // broken cache must not erase each other's evidence.
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const json::ParseResult existing = json::parse(buffer.str());
      if (existing.ok() && existing.value->is_object()) {
        const json::Value* entries = existing.value->find("entries");
        if (entries != nullptr && entries->is_array()) {
          items = entries->as_array();
        }
      }
    }
  }
  for (std::size_t i = 0; i < issues.size(); ++i) {
    json::Object item;
    item.emplace_back("index",
                      static_cast<std::int64_t>(issues[i].entry_index));
    if (!issues[i].hash.empty()) item.emplace_back("hash", issues[i].hash);
    item.emplace_back("reason", issues[i].reason);
    item.emplace_back("entry", raw_entries[i]);
    items.emplace_back(std::move(item));
  }
  json::Object doc;
  doc.emplace_back("version", 1);
  doc.emplace_back("source", source);
  doc.emplace_back("entries", std::move(items));
  commit_file(path, json::Value(std::move(doc)).dump() + "\n");
}

}  // namespace

ResultCache::ResultCache(std::string file_path)
    : file_path_(std::move(file_path)) {
  // Exclusive for the whole load: a concurrent process mid-save (or
  // mid-quarantine) must never be observed half-way.
  ScopedFileLock lock(file_path_);
  std::ifstream in(file_path_);
  if (!in) return;  // no file yet: a fresh cache, not an error
  std::ostringstream buffer;
  buffer << in.rdbuf();

  const json::ParseResult parsed = json::parse(buffer.str());
  if (!parsed.ok()) {
    load_error_ = "cache file is not valid JSON: " + parsed.error.message;
    return;
  }
  const json::Value& doc = *parsed.value;
  const json::Value* version = doc.find("version");
  const json::Value* entries = doc.find("entries");
  if (version == nullptr || !version->is_int() ||
      version->as_int() != kCacheFileVersion || entries == nullptr ||
      !entries->is_array()) {
    load_error_ = "cache file has an unexpected shape";
    return;
  }

  // Per-entry salvage: a single truncated or hand-edited entry must not
  // discard every other result — each malformed entry is skipped with a
  // reason, the rest load normally.
  std::vector<json::Value> quarantined_raw;
  const json::Array& items = entries->as_array();
  for (std::size_t index = 0; index < items.size(); ++index) {
    const json::Value& item = items[index];
    const json::Value* hash = item.find("hash");
    const json::Value* key = item.find("key");
    const json::Value* report = item.find("report");
    const std::string stored_hash =
        (hash != nullptr && hash->is_string()) ? hash->as_string() : "";
    std::string reason;
    if (hash == nullptr || !hash->is_string()) {
      reason = "missing or non-string \"hash\"";
    } else if (key == nullptr || !key->is_string()) {
      reason = "missing or non-string \"key\"";
    } else if (report == nullptr || !report->is_object()) {
      reason = "missing or non-object \"report\"";
    } else {
      try {
        entries_[stored_hash] =
            Entry{key->as_string(), core::from_json_string(report->dump())};
        continue;
      } catch (const std::exception& e) {
        reason = std::string("unreadable report: ") + e.what();
      }
    }
    load_issues_.push_back(CacheLoadIssue{index, stored_hash, reason});
    quarantined_raw.push_back(item);
  }

  if (!load_issues_.empty()) {
    const std::string sidecar = quarantine_path();
    write_quarantine(sidecar, file_path_, load_issues_, quarantined_raw);
    std::ostringstream summary;
    summary << "salvaged " << entries_.size() << " of " << items.size()
            << " cache entries (" << load_issues_.size()
            << " malformed, quarantined to " << sidecar << ")";
    load_error_ = summary.str();
  }
}

std::optional<core::TopologyReport> ResultCache::get(
    const DiscoveryJob& job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(job.hash_hex());
  // The stored key must match exactly: a 64-bit hash collision between two
  // distinct jobs must read as a miss, never as a wrong report.
  if (it == entries_.end() || it->second.key != job.key()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.report;  // a copy, not a reparse: hits stay cheap
}

void ResultCache::put(const DiscoveryJob& job,
                      const core::TopologyReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[job.hash_hex()] = Entry{job.key(), report};
}

bool ResultCache::contains(const DiscoveryJob& job) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(job.hash_hex());
  return it != entries_.end() && it->second.key == job.key();
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::string ResultCache::quarantine_path() const {
  return file_path_.empty() ? std::string() : file_path_ + ".quarantine";
}

bool ResultCache::save() const {
  if (file_path_.empty()) return true;
  return save_as(file_path_);
}

bool ResultCache::save_as(const std::string& path) const {
  // The fault site is consulted once per save; injected corruption is
  // applied below by this writer (the injector only decides).
  std::optional<fault::FaultKind> injected;
  if (fault::faults_enabled()) {
    injected = fault::Injector::instance().file_fault(fault::kSiteCacheSave,
                                                      path);
  }

  // Exclusive for the read-merge-commit cycle: concurrent processes sharing
  // one cache file serialise here, so neither can overwrite results the
  // other computed between our load and our save.
  ScopedFileLock lock(path);

  // Merge: disk entries another process persisted survive unless our
  // in-memory state overrides them. Entries the disk holds malformed are
  // dropped from the merge — the next load would quarantine them anyway,
  // and resurrecting bytes we cannot vouch for defeats the salvage path.
  std::map<std::string, json::Object> merged;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const json::ParseResult parsed = json::parse(buffer.str());
      if (parsed.ok() && parsed.value->is_object()) {
        const json::Value* version = parsed.value->find("version");
        const json::Value* disk_entries = parsed.value->find("entries");
        if (version != nullptr && version->is_int() &&
            version->as_int() == kCacheFileVersion &&
            disk_entries != nullptr && disk_entries->is_array()) {
          for (const json::Value& item : disk_entries->as_array()) {
            const json::Value* hash = item.find("hash");
            const json::Value* key = item.find("key");
            const json::Value* report = item.find("report");
            if (hash == nullptr || !hash->is_string() || key == nullptr ||
                !key->is_string() || report == nullptr ||
                !report->is_object()) {
              continue;
            }
            try {
              // Preserve only reports that actually read back — merging an
              // entry the load path would quarantine re-infects the file.
              (void)core::from_json_string(report->dump());
            } catch (const std::exception&) {
              continue;
            }
            json::Object entry;
            entry.emplace_back("hash", hash->as_string());
            entry.emplace_back("key", key->as_string());
            entry.emplace_back("report", *report);
            merged[hash->as_string()] = std::move(entry);
          }
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> memory_lock(mutex_);
    for (const auto& [hash, entry] : entries_) {
      json::Object item;
      item.emplace_back("hash", hash);
      item.emplace_back("key", entry.key);
      item.emplace_back("report", core::to_json(entry.report));
      merged[hash] = std::move(item);
    }
  }

  json::Array entries;
  bool first = true;
  for (auto& [hash, item] : merged) {
    if (first && injected == fault::FaultKind::kCorruptBadEntry) {
      // Structurally malformed on purpose: report is a string, not an
      // object — exactly what the load-salvage path must quarantine.
      json::Object corrupt;
      corrupt.emplace_back("hash", hash);
      corrupt.emplace_back("key", item[1].second);
      corrupt.emplace_back("report", "injected corrupt entry");
      entries.emplace_back(std::move(corrupt));
    } else {
      entries.emplace_back(std::move(item));
    }
    first = false;
  }
  json::Object doc;
  doc.emplace_back("version", kCacheFileVersion);
  doc.emplace_back("entries", std::move(entries));
  const std::string payload = json::Value(std::move(doc)).dump() + "\n";

  // Atomic commit: write everything to a pid-unique temp file in the same
  // directory, then rename over the target — a crash (or an injected torn
  // write) at any point leaves either the old file or the new one, never a
  // half of each.
  if (injected == fault::FaultKind::kTornWrite) {
    // Simulated crash mid-write: half the bytes land in the temp file and
    // the commit rename never happens. The target file stays untouched.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out) out << payload.substr(0, payload.size() / 2);
    return false;
  }
  if (!commit_file(path, payload)) return false;

  if (injected == fault::FaultKind::kCorruptTruncate) {
    std::error_code truncate_ec;
    std::filesystem::resize_file(path, payload.size() / 2, truncate_ec);
  } else if (injected == fault::FaultKind::kCorruptBadJson) {
    std::ofstream append(path, std::ios::binary | std::ios::app);
    append << "{\"trailing garbage\"";
  }
  return true;
}

}  // namespace mt4g::fleet
