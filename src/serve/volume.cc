#include "serve/volume.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace sy::serve {

namespace {

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  // Capture errno before anything else can clobber it; the typed error is
  // what lets the breaker split transient (ENOSPC, EIO, ...) from fatal.
  throw IoError(what, path, errno);
}

/// True when op index `op` (relative to arming) is inside the plan's window.
bool in_window(const FaultPlan& plan, std::uint64_t op) {
  if (op < plan.at) return false;
  return plan.count == 0 || op < plan.at + plan.count;
}

/// Owns a file descriptor and closes it on every exit path.
struct Fd {
  int fd;
  explicit Fd(int fd_in) : fd(fd_in) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  while (len > 0) {
    const ::ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("write", path);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

class FileLogSink final : public LogSink {
 public:
  explicit FileLogSink(std::string path)
      : path_(std::move(path)),
        fd_(::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644)) {
    if (fd_.fd < 0) throw_io("open", path_);
  }

  void append(const std::uint8_t* data, std::size_t len) override {
    write_all(fd_.fd, data, len, path_);
  }
  void sync() override {
    if (::fsync(fd_.fd) != 0) throw_io("fsync", path_);
  }
  void reset() override {
    if (::ftruncate(fd_.fd, 0) != 0) throw_io("ftruncate", path_);
    sync();
  }

 private:
  std::string path_;
  Fd fd_;
};

/// Consults the controller for one op on `path`: throws IoError(EIO) for an
/// injected error and stalls a slow op. Returns false for a dropped fsync,
/// which is acknowledged but never reaches storage.
bool admit(ChaosController& chaos, const SleepFn& sleep, bool sync,
           const char* op, const std::string& path) {
  switch (chaos.next_action(sync)) {
    case ChaosController::Action::kError:
      throw IoError(std::string(op) + "(chaos)", path, EIO);
    case ChaosController::Action::kDelay:
      sleep(chaos.delay_ns());
      return true;
    case ChaosController::Action::kDropSync:
      return false;
    case ChaosController::Action::kPass:
      break;
  }
  return true;
}

class ChaosLogSink final : public LogSink {
 public:
  ChaosLogSink(std::unique_ptr<LogSink> inner,
               std::shared_ptr<ChaosController> chaos, SleepFn sleep,
               std::string path)
      : inner_(std::move(inner)),
        chaos_(std::move(chaos)),
        sleep_(std::move(sleep)),
        path_(std::move(path)) {}

  void append(const std::uint8_t* data, std::size_t len) override {
    if (admit(*chaos_, sleep_, /*sync=*/false, "append", path_)) {
      inner_->append(data, len);
    }
  }
  void sync() override {
    if (admit(*chaos_, sleep_, /*sync=*/true, "fsync", path_)) inner_->sync();
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<LogSink> inner_;
  std::shared_ptr<ChaosController> chaos_;
  SleepFn sleep_;
  std::string path_;
};

}  // namespace

std::unique_ptr<LogSink> FileVolume::open_log(const std::string& path) {
  return std::make_unique<FileLogSink>(path);
}

void FileVolume::publish(const std::string& path,
                         const std::vector<std::uint8_t>& bytes,
                         Durability durability) {
  const bool durable = durability == Durability::kDurable;
  const std::string tmp = path + ".tmp";
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.fd < 0) throw_io("open", tmp);
    write_all(fd.fd, bytes.data(), bytes.size(), tmp);
    // Data before the rename: a shard snapshot's caller truncates the
    // shard's log right after this returns, and a truncate that reaches the
    // disk before the snapshot's data blocks would lose every record the
    // snapshot absorbed.
    if (durable && ::fsync(fd.fd) != 0) throw_io("fsync", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_io("rename", path);
  if (!durable) return;
  // fsync the directory so the rename itself survives power loss.
  const auto dir = std::filesystem::path(path).parent_path().string();
  const Fd dir_fd(::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY));
  if (dir_fd.fd < 0) throw_io("open directory", dir);
  if (::fsync(dir_fd.fd) != 0) throw_io("fsync directory", dir);
}

ChaosVolume::ChaosVolume(std::shared_ptr<Volume> inner,
                         std::shared_ptr<ChaosController> chaos, SleepFn sleep)
    : inner_(std::move(inner)),
      chaos_(std::move(chaos)),
      sleep_(sleep ? std::move(sleep) : thread_sleep_fn()) {}

std::unique_ptr<LogSink> ChaosVolume::open_log(const std::string& path) {
  return std::make_unique<ChaosLogSink>(inner_->open_log(path), chaos_,
                                        sleep_, path);
}

void ChaosVolume::publish(const std::string& path,
                          const std::vector<std::uint8_t>& bytes,
                          Durability durability) {
  (void)admit(*chaos_, sleep_, /*sync=*/false, "publish", path);
  inner_->publish(path, bytes, durability);
}

void MemoryLogSink::append(const std::uint8_t* data, std::size_t len) {
  buffer_.insert(buffer_.end(), data, data + len);
}

void MemoryLogSink::reset() {
  buffer_.clear();
  durable_ = 0;
}

void MemoryLogSink::materialize_crash(std::size_t cut_at) const {
  const std::size_t size = std::min(durable_, cut_at);
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("MemoryLogSink: cannot write " + path_);
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(size));
}

FaultPlan parse_fault_plan(const std::string& spec) {
  // KIND[@AT[+COUNT]][:DELAY_US] — see the header for the grammar.
  const auto malformed = [&spec](const std::string& why) {
    return std::invalid_argument("parse_fault_plan: " + why + " in spec '" +
                                 spec + "'");
  };
  // A whole field of decimal digits: from_chars into an unsigned type takes
  // no sign or leading space, and the end check rejects any suffix.
  const auto number = [&malformed](std::string_view field) {
    std::uint64_t value = 0;
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      throw malformed("bad number '" + std::string(field) + "'");
    }
    return value;
  };

  FaultPlan plan;
  std::string_view head = spec;
  std::optional<std::string_view> delay_part;
  if (const auto colon = head.find(':'); colon != std::string_view::npos) {
    delay_part = head.substr(colon + 1);
    head = head.substr(0, colon);
  }
  std::optional<std::string_view> window_part;
  if (const auto at = head.find('@'); at != std::string_view::npos) {
    window_part = head.substr(at + 1);
    head = head.substr(0, at);
  }
  if (head == "error") {
    plan.kind = FaultPlan::Kind::kErrorOps;
  } else if (head == "slow") {
    plan.kind = FaultPlan::Kind::kSlowOps;
  } else if (head == "dropsync") {
    plan.kind = FaultPlan::Kind::kDropSyncOps;
  } else {
    throw malformed("unknown kind '" + std::string(head) +
                    "' (want error|slow|dropsync)");
  }
  if (window_part) {
    const auto plus = window_part->find('+');
    plan.at = number(window_part->substr(0, plus));
    if (plus != std::string_view::npos) {
      plan.count = number(window_part->substr(plus + 1));
    }
  }
  if (delay_part) {
    if (plan.kind != FaultPlan::Kind::kSlowOps) {
      throw malformed("delay only applies to 'slow'");
    }
    const std::uint64_t delay_us = number(*delay_part);
    if (delay_us > UINT64_MAX / 1000) throw malformed("delay out of range");
    plan.delay_ns = delay_us * 1000;
  }
  if (plan.kind == FaultPlan::Kind::kSlowOps && plan.delay_ns == 0) {
    throw malformed("'slow' needs a :DELAY_US suffix");
  }
  return plan;
}

void ChaosController::arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  armed_ = true;
  armed_at_op_ = ops_;
}

void ChaosController::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
}

bool ChaosController::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return armed_;
}

ChaosController::Stats ChaosController::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = counters_;
  out.ops = ops_;
  return out;
}

ChaosController::Action ChaosController::next_action(bool sync) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t op = ops_++;
  if (!armed_ || !in_window(plan_, op - armed_at_op_)) return Action::kPass;
  switch (plan_.kind) {
    case FaultPlan::Kind::kErrorOps:
      ++counters_.injected_errors;
      return Action::kError;
    case FaultPlan::Kind::kSlowOps:
      ++counters_.injected_delays;
      return Action::kDelay;
    case FaultPlan::Kind::kDropSyncOps:
      if (!sync) return Action::kPass;
      ++counters_.dropped_syncs;
      return Action::kDropSync;
    case FaultPlan::Kind::kNone:
      break;
  }
  return Action::kPass;
}

std::uint64_t ChaosController::delay_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_.delay_ns;
}

}  // namespace sy::serve
