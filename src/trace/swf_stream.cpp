#include "trace/swf_stream.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mcsim {

namespace {
[[noreturn]] void parse_error(const std::string& source, std::uint64_t line_no,
                              const std::string& message) {
  // file:line prefix so a malformed record in a multi-million-line archive
  // log can actually be found.
  MCSIM_REQUIRE(false, source + ":" + std::to_string(line_no) + ": " + message);
  std::abort();  // unreachable: MCSIM_REQUIRE(false, ...) always throws
}

/// The numeric header directives the archive defines. Anything else after
/// a ';' stays a plain comment (logs carry free-text Computer/Note/
/// Conversion lines, and mcsim's own exports carry Command/Version lines).
std::int64_t* directive_slot(SwfHeaderInfo& header, std::string_view key) {
  const std::string lowered = to_lower(key);
  if (lowered == "maxjobs") return &header.max_jobs;
  if (lowered == "maxrecords") return &header.max_records;
  if (lowered == "maxnodes") return &header.max_nodes;
  if (lowered == "maxprocs") return &header.max_procs;
  if (lowered == "maxruntime") return &header.max_runtime;
  if (lowered == "maxqueues") return &header.max_queues;
  if (lowered == "maxpartitions") return &header.max_partitions;
  if (lowered == "unixstarttime") return &header.unix_start_time;
  return nullptr;
}

/// Fold one comment line (already stripped of the leading ';') into the
/// header: known `Key: value` directives are parsed and validated, the
/// line itself is always kept verbatim in comments.
void absorb_comment(SwfHeaderInfo& header, std::string_view comment,
                    const std::string& source, std::uint64_t line_no) {
  header.comments.emplace_back(comment);
  const std::size_t colon = comment.find(':');
  if (colon == std::string_view::npos) return;
  std::int64_t* slot = directive_slot(header, trim(comment.substr(0, colon)));
  if (slot == nullptr) return;
  const std::string value{trim(comment.substr(colon + 1))};
  char* parsed_end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &parsed_end, 10);
  if (value.empty() || parsed_end != value.c_str() + value.size() || parsed < 0) {
    parse_error(source, line_no,
                "header directive '" + std::string(trim(comment.substr(0, colon))) +
                    "' needs a non-negative integer, got '" + value + "'");
  }
  *slot = static_cast<std::int64_t>(parsed);
}

/// The doubles an integer record field accepts: exactly those that
/// truncate into its type (exclusive bounds).
struct FieldRange {
  const char* name;
  double low;
  double high;

  [[nodiscard]] bool holds(double value) const { return value > low && value < high; }
};
constexpr double kTwoPow32 = 4294967296.0;
constexpr FieldRange kJobIdRange{"job id", -1.0, 18446744073709551616.0};
constexpr FieldRange kProcessorsRange{"processors", -1.0, kTwoPow32};
constexpr FieldRange kStatusRange{"status", std::numeric_limits<int>::min() - 1.0,
                                  std::numeric_limits<int>::max() + 1.0};
// Negative user ids read as unknown, so only the top is bounded.
constexpr FieldRange kUserIdRange{"user id", -std::numeric_limits<double>::infinity(),
                                  kTwoPow32};

bool is_separator(char c) { return c == ' ' || c == '\t'; }

/// Parse the field that starts at `p` and runs to the next ' ', '\t' or
/// `end`, and leave `p` just past it. True, with `value` set, exactly when
/// strtod would consume the whole field, and then to strtod's value.
bool parse_field(const char*& p, const char* end, double& value) {
  const char* const start = p;
  // -?[0-9]{1,15}, accumulated during the scan: below 2^53, so the
  // integer converts to double exactly ("-0" included, as -0.0). Longer
  // digit runs wrap harmlessly and take the paths below.
  const bool negative = *p == '-';
  if (negative) ++p;
  const char* const digits = p;
  std::uint64_t integer = 0;
  for (; p != end; ++p) {
    const auto digit = static_cast<unsigned char>(*p - '0');
    if (digit > 9) break;
    integer = integer * 10 + digit;
  }
  if ((p == end || is_separator(*p)) && p - digits >= 1 && p - digits <= 15) {
    value = negative ? -static_cast<double>(integer) : static_cast<double>(integer);
    return true;
  }
  while (p != end && !is_separator(*p)) ++p;
  // Decimal fractions and exponents: from_chars rounds correctly, as
  // strtod does, but refuses what only strtod reads ('+', hex, leading
  // whitespace) and reports underflow and overflow as errors.
  const auto [parsed_end, error] = std::from_chars(start, p, value);
  if (error == std::errc() && parsed_end == p) return true;
  // Everything else, rejects included, is strtod's own verdict.
  const std::string text(start, p);
  char* strtod_end = nullptr;
  value = std::strtod(text.c_str(), &strtod_end);
  return strtod_end == text.c_str() + text.size();
}

/// The text of field `index` (0-based) of a record line, for diagnostics.
std::string field_text(std::string_view line, std::size_t index) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t i = 0;; ++i) {
    while (p != end && is_separator(*p)) ++p;
    const char* const start = p;
    while (p != end && !is_separator(*p)) ++p;
    if (i == index) return {start, p};
  }
}

/// The error for a parsed record that failed the finiteness or range
/// check: names the first offending field and its text.
[[noreturn]] [[gnu::cold]] void reject_unrepresentable(const std::string& source,
                                                       std::uint64_t line_no,
                                                       std::string_view line,
                                                       const double (&field)[18],
                                                       std::size_t alloc_field) {
  for (std::size_t i = 0; i < 18; ++i) {
    if (!std::isfinite(field[i])) {
      parse_error(source, line_no,
                  "field " + std::to_string(i + 1) + " is not a finite number: '" +
                      field_text(line, i) + "'");
    }
  }
  const auto require = [&](std::size_t i, const FieldRange& range) {
    if (!range.holds(field[i])) {
      parse_error(source, line_no,
                  "field " + std::to_string(i + 1) + " (" + range.name +
                      ") is out of range: '" + field_text(line, i) + "'");
    }
  };
  require(0, kJobIdRange);
  require(alloc_field, kProcessorsRange);
  require(10, kStatusRange);
  require(11, kUserIdRange);
  std::abort();  // unreachable: called only when one of the checks fails
}
}  // namespace

SwfStreamReader::SwfStreamReader(std::istream& in, std::string source)
    : in_(in), source_(std::move(source)) {}

bool SwfStreamReader::refill() {
  if (block_.empty()) block_.resize(kBlockBytes);
  in_.read(block_.data(), static_cast<std::streamsize>(block_.size()));
  block_pos_ = 0;
  block_end_ = static_cast<std::size_t>(in_.gcount());
  return block_end_ > 0;
}

bool SwfStreamReader::next_line(std::string_view& line) {
  bool straddles = false;
  for (;;) {
    const char* begin = block_.data() + block_pos_;
    const std::size_t available = block_end_ - block_pos_;
    const void* newline = available > 0 ? std::memchr(begin, '\n', available) : nullptr;
    if (newline != nullptr) {
      const auto length = static_cast<std::size_t>(static_cast<const char*>(newline) - begin);
      block_pos_ += length + 1;
      if (!straddles) {
        line = {begin, length};
      } else {
        line_.append(begin, length);
        line = line_;
      }
      return true;
    }
    // No '\n' in the rest of this block: carry the partial line over.
    if (available > 0) {
      if (!straddles) line_.clear();
      line_.append(begin, available);
      straddles = true;
    }
    if (!refill()) {
      if (!straddles) return false;
      line = line_;  // a final line without '\n'
      return true;
    }
  }
}

bool SwfStreamReader::next(TraceRecord& out) {
  std::string_view line;
  while (next_line(line)) {
    ++line_no_;
    // trim() also strips '\r', so CRLF logs (common in archive downloads)
    // parse the same as LF ones.
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == ';') {
      absorb_comment(header_, trim(trimmed.substr(1)), source_, line_no_);
      continue;
    }
    parse_record(trimmed, out);
    ++records_read_;
    return true;
  }
  return false;
}

void SwfStreamReader::parse_record(std::string_view line, TraceRecord& out) {
  // SWF prescribes 18 whitespace-separated fields, but real Parallel
  // Workloads Archive logs sometimes truncate unused trailing columns;
  // absent fields read as -1 ("unknown"), exactly as SWF spells missing
  // values. Extra columns are an error: the line is not SWF.
  double field[18];
  for (double& f : field) f = -1.0;
  std::size_t count = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    while (p != end && is_separator(*p)) ++p;
    if (p == end) break;
    if (count >= 18) {
      parse_error(source_, line_no_, "expected at most 18 fields, found more");
    }
    if (!parse_field(p, end, field[count])) {
      parse_error(source_, line_no_,
                  "field " + std::to_string(count + 1) + " is not a number: '" +
                      field_text(line, count) + "'");
    }
    ++count;
  }

  // The processor count is the allocated one, else the requested one.
  const std::size_t alloc_field = field[4] >= 0 ? 4 : 7;
  const double alloc = field[alloc_field];
  if (alloc < 0) {
    parse_error(source_, line_no_,
                "no processor count (allocated and requested both missing)");
  }
  // Casting a double the target type cannot hold is undefined behaviour,
  // and an inf or nan time poisons every sum built on it: reject both.
  bool finite = true;
  for (const double f : field) finite &= std::isfinite(f);
  if (!finite || !kJobIdRange.holds(field[0]) || !kProcessorsRange.holds(alloc) ||
      !kStatusRange.holds(field[10]) || !kUserIdRange.holds(field[11])) {
    reject_unrepresentable(source_, line_no_, line, field, alloc_field);
  }

  TraceRecord rec;
  rec.job_id = static_cast<std::uint64_t>(field[0]);
  rec.submit_time = field[1];
  rec.wait_time = field[2] >= 0 ? field[2] : 0.0;
  rec.run_time = field[3] >= 0 ? field[3] : 0.0;
  rec.processors = static_cast<std::uint32_t>(alloc);
  // Validate against the machine the header declares: a job wider than
  // the whole system means the log is internally inconsistent, and
  // replaying it would silently misreport utilization.
  const std::int64_t declared = header_.declared_processors();
  if (declared > 0 && static_cast<std::int64_t>(rec.processors) > declared) {
    parse_error(source_, line_no_,
                "job requests " + std::to_string(rec.processors) +
                    " processors but the header declares " +
                    (header_.max_procs >= 0 ? "MaxProcs: " : "MaxNodes: ") +
                    std::to_string(declared));
  }
  rec.killed_by_limit = static_cast<int>(field[10]) == 5;
  rec.user_id = field[11] >= 0 ? static_cast<std::uint32_t>(field[11]) : 0;
  out = rec;
}

SwfFileStream::SwfFileStream(const std::string& path)
    : file_(path), reader_(file_, path) {
  MCSIM_REQUIRE(file_.good(), "cannot open trace file: " + path);
}

bool SwfFileStream::next(TraceRecord& out) { return reader_.next(out); }

SwfScan scan_swf_file(const std::string& path) {
  SwfFileStream stream(path);
  SwfScan scan;
  scan.summary = summarize_trace_source(stream);
  scan.header = stream.header();
  return scan;
}

}  // namespace mcsim
