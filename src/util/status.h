#ifndef MATCHCATCHER_UTIL_STATUS_H_
#define MATCHCATCHER_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace mc {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,
  /// A bounded resource (admission queue, memory budget, session slots) is
  /// full. The condition is expected to clear; messages carry a retry-after
  /// hint where the rejecting layer can estimate one.
  kResourceExhausted,
  /// A transient failure worth retrying as-is (RetryPolicy treats this and
  /// kResourceExhausted as retryable; kInvalidArgument and friends are not).
  kUnavailable,
};

/// Returns a short human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Lightweight success-or-error value used by all fallible library
/// operations. The library does not use exceptions; functions that can fail
/// return `Status` (or `Result<T>`), and callers must inspect it.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Attaches a typed retry-after hint (milliseconds) and returns the
  /// status, builder style:
  ///
  ///   return Status::ResourceExhausted("queue full").WithRetryAfter(250);
  ///
  /// The hint is the payload callers act on; any "retry-after-ms=<n>" text
  /// in the message is for humans only and is never parsed back.
  Status&& WithRetryAfter(int64_t millis) && {
    retry_after_millis_ = millis;
    return std::move(*this);
  }
  Status& WithRetryAfter(int64_t millis) & {
    retry_after_millis_ = millis;
    return *this;
  }

  /// The retry-after hint in milliseconds, or -1 when none was attached.
  int64_t retry_after_millis() const { return retry_after_millis_; }
  bool has_retry_after() const { return retry_after_millis_ >= 0; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
  int64_t retry_after_millis_ = -1;
};

/// Holds either a value of type `T` or an error `Status`. Accessing the
/// value of an errored result is a fatal programming error.
///
/// The value and the status live side by side rather than in a variant:
/// the status is a plain OK status while a value is held, so no member is
/// ever left unconstructed (GCC's -Wmaybe-uninitialized misreads the
/// inactive alternative of a variant<T, Status> at -O2).
template <typename T>
class Result {
 public:
  /// Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    MC_CHECK(!status_.ok())
        << "Result constructed from OK status without a value";
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  const T& value() const& {
    MC_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return *value_;
  }
  T& value() & {
    MC_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return *value_;
  }
  T&& value() && {
    MC_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK while value_ holds a value.
};

}  // namespace mc

/// Propagates an error status out of the current function.
#define MC_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::mc::Status mc_status_ = (expr);              \
    if (!mc_status_.ok()) return mc_status_;       \
  } while (false)

/// Evaluates `expr` (a Result<T>), propagates its error out of the current
/// function, or assigns the value to `lhs`. `lhs` may declare a variable:
///
///   MC_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path));
///   MC_ASSIGN_OR_RETURN(auto lines, ReadLines(path));
///
/// The enclosing function must return Status or Result<U>.
#define MC_ASSIGN_OR_RETURN(lhs, expr) \
  MC_ASSIGN_OR_RETURN_IMPL_(           \
      MC_STATUS_MACRO_CONCAT_(mc_result_, __LINE__), lhs, expr)

#define MC_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                              \
  if (!result.ok()) return result.status();          \
  lhs = std::move(result).value()

#define MC_STATUS_MACRO_CONCAT_(a, b) MC_STATUS_MACRO_CONCAT_IMPL_(a, b)
#define MC_STATUS_MACRO_CONCAT_IMPL_(a, b) a##b

#endif  // MATCHCATCHER_UTIL_STATUS_H_
