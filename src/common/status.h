// Status / Result error-handling primitives (RocksDB-style: no exceptions on
// library paths; fallible operations return a Status or a Result<T>).
#ifndef RANKCUBE_COMMON_STATUS_H_
#define RANKCUBE_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace rankcube {

/// Outcome of a fallible library operation.
///
/// Mirrors the RocksDB `Status` idiom: cheap to construct and copy, carries a
/// coarse error code plus a human-readable message. Library code never throws;
/// callers are expected to check `ok()` (or use the RC_RETURN_IF_ERROR macro).
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kNotSupported,
    kCorruption,
    kOutOfRange,
    kDeadlineExceeded,
    kResourceExhausted,
    kInternal,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  /// A wall-clock deadline elapsed before (or while) the operation ran;
  /// distinct from OutOfRange budget overruns so admission layers can tell
  /// "too slow" from "too expensive".
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  /// A quota (tenant in-flight limit, connection limit, ...) rejected the
  /// operation before it did any work; retrying later may succeed.
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  /// An environment failure outside the library's contract (socket errors,
  /// OS resources); the message carries the errno text.
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// The same status with `prefix` put before its message (OK stays OK):
  /// how a layer names where an error from below arose without changing
  /// what the caller may do about it.
  Status WithPrefix(const std::string& prefix) const {
    if (ok()) return *this;
    return Status(code_, prefix + message_);
  }

  /// "OK" or "<code>: <message>"; for logs and test failure output.
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Value-or-Status, by analogy with absl::StatusOr / arrow::Result.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}        // NOLINT(runtime/explicit)
  Result(Status status) : v_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(v_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }
  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> v_;
};

#define RC_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::rankcube::Status _rc_status = (expr);      \
    if (!_rc_status.ok()) return _rc_status;     \
  } while (false)

}  // namespace rankcube

#endif  // RANKCUBE_COMMON_STATUS_H_
