// Differential gate for the block-buffered SwfStreamReader: on every input,
// the reader must behave exactly as the getline + strtod reader it
// replaced. ReferenceSwfReader below is a verbatim copy of that reader (the
// one the sealed corpus goldens were generated with); each case runs both
// over the same text and compares every record bit for bit, the header,
// line_number() and the error text on malformed lines.
//
// The one intended difference: records with a non-finite field, or with a
// value its integer field cannot hold, are now `file:line:` errors. The
// reference reader's casts are undefined behaviour on those, so it is never
// run on them; the new reader is checked to reject them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/swf.hpp"
#include "trace/swf_stream.hpp"
#include "trace/synthetic_log.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#ifndef MCSIM_DATA_DIR
#define MCSIM_DATA_DIR "data"
#endif

namespace mcsim {
namespace {

// ---------------------------------------------------------------------------
// Reference reader: the historical SwfStreamReader, unchanged.
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

class ReferenceSwfReader {
 public:
  ReferenceSwfReader(std::istream& in, std::string source)
      : in_(in), source_(std::move(source)) {}

  bool next(TraceRecord& out) {
    while (std::getline(in_, line_)) {
      ++line_no_;
      // trim() also strips '\r', so CRLF logs (common in archive downloads)
      // parse the same as LF ones.
      const std::string_view trimmed = trim(line_);
      if (trimmed.empty()) continue;
      if (trimmed.front() == ';') {
        absorb_comment(header_, trim(trimmed.substr(1)), source_, line_no_);
        continue;
      }

      // SWF prescribes 18 whitespace-separated fields, but real Parallel
      // Workloads Archive logs sometimes truncate unused trailing columns;
      // absent fields read as -1 ("unknown"), exactly as SWF spells missing
      // values. Extra columns are an error: the line is not SWF.
      double field[18];
      for (double& f : field) f = -1.0;
      std::size_t count = 0;
      std::size_t pos = 0;
      while (pos < trimmed.size()) {
        while (pos < trimmed.size() && (trimmed[pos] == ' ' || trimmed[pos] == '\t')) ++pos;
        if (pos >= trimmed.size()) break;
        std::size_t end = pos;
        while (end < trimmed.size() && trimmed[end] != ' ' && trimmed[end] != '\t') ++end;
        const std::string token{trimmed.substr(pos, end - pos)};
        if (count >= 18) {
          parse_error(source_, line_no_, "expected at most 18 fields, found more");
        }
        char* parsed_end = nullptr;
        const double value = std::strtod(token.c_str(), &parsed_end);
        if (parsed_end != token.c_str() + token.size() || token.empty()) {
          parse_error(source_, line_no_,
                      "field " + std::to_string(count + 1) + " is not a number: '" +
                          token + "'");
        }
        field[count++] = value;
        pos = end;
      }

      TraceRecord rec;
      rec.job_id = static_cast<std::uint64_t>(field[0]);
      rec.submit_time = field[1];
      rec.wait_time = field[2] >= 0 ? field[2] : 0.0;
      rec.run_time = field[3] >= 0 ? field[3] : 0.0;
      const double alloc = field[4] >= 0 ? field[4] : field[7];
      if (alloc < 0) {
        parse_error(source_, line_no_,
                    "no processor count (allocated and requested both missing)");
      }
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
      ++records_read_;
      out = rec;
      return true;
    }
    return false;
  }

  [[nodiscard]] const SwfHeaderInfo& header() const { return header_; }
  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }
  [[nodiscard]] std::uint64_t line_number() const { return line_no_; }

 private:
  std::istream& in_;
  std::string source_;
  SwfHeaderInfo header_;
  std::string line_;
  std::uint64_t line_no_ = 0;
  std::uint64_t records_read_ = 0;
};

// ---------------------------------------------------------------------------
// The comparison.

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_record(const TraceRecord& want, const TraceRecord& got,
                        const std::string& where) {
  EXPECT_EQ(want.job_id, got.job_id) << where;
  EXPECT_TRUE(same_bits(want.submit_time, got.submit_time)) << where;
  EXPECT_TRUE(same_bits(want.wait_time, got.wait_time)) << where;
  EXPECT_TRUE(same_bits(want.run_time, got.run_time)) << where;
  EXPECT_EQ(want.processors, got.processors) << where;
  EXPECT_EQ(want.user_id, got.user_id) << where;
  EXPECT_EQ(want.killed_by_limit, got.killed_by_limit) << where;
}

void expect_same_header(const SwfHeaderInfo& want, const SwfHeaderInfo& got,
                        const std::string& name) {
  EXPECT_EQ(want.max_jobs, got.max_jobs) << name;
  EXPECT_EQ(want.max_records, got.max_records) << name;
  EXPECT_EQ(want.max_nodes, got.max_nodes) << name;
  EXPECT_EQ(want.max_procs, got.max_procs) << name;
  EXPECT_EQ(want.max_runtime, got.max_runtime) << name;
  EXPECT_EQ(want.max_queues, got.max_queues) << name;
  EXPECT_EQ(want.max_partitions, got.max_partitions) << name;
  EXPECT_EQ(want.unix_start_time, got.unix_start_time) << name;
  EXPECT_EQ(want.comments, got.comments) << name;
}

/// One next() call, with a thrown parse error captured as its text.
template <typename Reader>
std::optional<std::string> step(Reader& reader, TraceRecord& record, bool& more) {
  try {
    more = reader.next(record);
    return std::nullopt;
  } catch (const std::invalid_argument& error) {
    return std::string(error.what());
  }
}

/// Walk both readers over `in_ref`/`in_new` in lock-step and compare every
/// step; returns the number of records delivered.
std::uint64_t compare_streams(std::istream& in_ref, std::istream& in_new,
                              const std::string& name) {
  ReferenceSwfReader reference(in_ref, name);
  SwfStreamReader reader(in_new, name);
  for (;;) {
    TraceRecord want;
    TraceRecord got;
    bool want_more = false;
    bool got_more = false;
    const std::optional<std::string> want_error = step(reference, want, want_more);
    const std::optional<std::string> got_error = step(reader, got, got_more);
    const std::string where = name + " at line " + std::to_string(reference.line_number());
    EXPECT_EQ(want_error, got_error) << where;
    EXPECT_EQ(reference.line_number(), reader.line_number()) << where;
    EXPECT_EQ(reference.records_read(), reader.records_read()) << where;
    if (want_error || got_error) break;
    EXPECT_EQ(want_more, got_more) << where;
    if (!want_more || !got_more) break;
    expect_same_record(want, got, where);
    if (::testing::Test::HasFailure()) break;  // one divergence is enough
  }
  expect_same_header(reference.header(), reader.header(), name);
  return reader.records_read();
}

std::uint64_t compare_text(const std::string& text, const std::string& name) {
  std::istringstream in_ref(text);
  std::istringstream in_new(text);
  return compare_streams(in_ref, in_new, name);
}

/// The new reader's error on `text`, which must fail.
std::string new_reader_error(const std::string& text) {
  std::istringstream in(text);
  SwfStreamReader reader(in, "edge.swf");
  TraceRecord record;
  try {
    while (reader.next(record)) {
    }
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "accepted: " << text;
  return "";
}

// ---------------------------------------------------------------------------
// Inputs.

TEST(SwfDifferential, ArchiveSamplesMatchTheReferenceReader) {
  for (const char* log : {"archive_samples/ctc_style.swf", "archive_samples/das2_style.swf",
                          "archive_samples/kth_style.swf", "archive_samples/sdsc_sp2_style.swf",
                          "das1_synthetic_sample.swf"}) {
    const std::string path = std::string(MCSIM_DATA_DIR) + "/" + log;
    std::ifstream in_ref(path);
    std::ifstream in_new(path);
    ASSERT_TRUE(in_ref.good() && in_new.good()) << path;
    EXPECT_GT(compare_streams(in_ref, in_new, path), 1000u) << path;
  }
}

TEST(SwfDifferential, SyntheticLogMatchesTheReferenceReader) {
  SyntheticLogConfig config;
  config.num_jobs = 5000;
  std::ostringstream text;
  write_swf(text, generate_synthetic_das1_log(config));
  EXPECT_EQ(compare_text(text.str(), "synthetic.swf"), 5000u);
}

/// Field spellings strtod accepts, each within range of every field it is
/// drawn for.
const std::vector<std::string> kNumberSpellings = {
    "+5",   "0x10", ".5",    "5.",   "1e3",   "-0",    "0",    "-1",      "7",
    "1E2",  "-2.5", "3.25e-1", "\f9", "\v12", "1e-400", "4.9e-324", "-1e-400",
    "0X1p3", "000017", "1234567890123456", "12345678901234567", "123456789012345678",
    "9007199254740993", "1.0000000000000002", "2.2250738585072014e-308", "INF"};

/// A record line whose fields are drawn from the spellings above, joined by
/// random separators. Ranged fields (job id, processors, status, user) get
/// values their integer types hold.
std::string seeded_record(Rng& rng) {
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.uniform_int(from.size())];
  };
  const std::vector<std::string> ids = {"1", "+5", "0x10", "5.", "1e3", "-0", "17",
                                        "1234567890123456789", "9999999999999999999"};
  const std::vector<std::string> procs = {"1", "+5", "0x10", ".5", "5.", "1e3", "-0", "64"};
  std::vector<std::string> small = procs;
  small.insert(small.end(), {"-1", "5", "\t8"});
  std::vector<std::string> fields;
  fields.push_back(pick(ids));
  for (int i = 0; i < 3; ++i) {
    std::string spelling = pick(kNumberSpellings);
    if (spelling == "INF") spelling = "12345678901234567890";  // finite only here
    fields.push_back(spelling);
  }
  fields.push_back(pick(procs));  // field 5 always holds a count
  for (int i = 5; i < 18; ++i) fields.push_back(pick(small));
  const std::size_t keep = 5 + rng.uniform_int(14);  // truncated trailing fields
  std::string line;
  for (std::size_t i = 0; i < keep; ++i) {
    if (i > 0) line += rng.uniform_int(4) == 0 ? "\t" : (rng.uniform_int(3) == 0 ? "  " : " ");
    line += fields[i];
  }
  switch (rng.uniform_int(4)) {
    case 0: line += "\r"; break;      // CRLF
    case 1: line += "  \t "; break;   // trailing blanks
    default: break;
  }
  return line + "\n";
}

TEST(SwfDifferential, SeededEdgeSpellingsMatchTheReferenceReader) {
  Rng rng(20031128);
  std::string text =
      "; Computer: edge cases\r\n"
      "; MaxJobs: 4000\n"
      ";\tmaxrecords: 4000  \n"
      ";\n"
      "; UnixStartTime: 0\n"
      "\n   \t\n";
  for (int i = 0; i < 4000; ++i) {
    if (i % 500 == 250) text += "; Note: a mid-file comment, line " + std::to_string(i) + "\n";
    if (i % 700 == 0) text += "\r\n";
    text += seeded_record(rng);
  }
  ASSERT_GT(text.size(), 2 * SwfStreamReader::kBlockBytes);  // many straddles
  EXPECT_EQ(compare_text(text, "seeded.swf"), 4000u);
  // And without the final newline.
  text.pop_back();
  EXPECT_EQ(compare_text(text, "seeded_nofinal.swf"), 4000u);
}

TEST(SwfDifferential, BlockBoundaryPlacementsMatchTheReferenceReader) {
  const std::string record = "2 10.5 3 600 16 -1 -1 16 -1 -1 1 4\n";
  // Put the record boundary at every offset around the first block's end,
  // including a '\n' as the block's last or first byte and a '\r' split
  // from its '\n'.
  for (std::size_t shift = 0; shift < record.size() + 2; ++shift) {
    const std::size_t pad = SwfStreamReader::kBlockBytes - record.size() - 2 + shift;
    const std::string text = ";" + std::string(pad, 'x') + "\n" + "1 0 0 60 4\r\n" + record +
                             record + "3 20 0 1 1";
    compare_text(text, "boundary+" + std::to_string(shift));
  }
  // Lines longer than a whole block: a comment and a record padded with
  // blanks, across three blocks.
  const std::string wide_comment = "; Note:" + std::string(3 * SwfStreamReader::kBlockBytes, 'n');
  const std::string wide_record =
      "4 0 0 60" + std::string(2 * SwfStreamReader::kBlockBytes + 11, ' ') + "8\t\t" +
      std::string(SwfStreamReader::kBlockBytes, '\t') + "-1\n";
  EXPECT_EQ(compare_text(wide_comment + "\n" + record + wide_record + record, "wide.swf"), 3u);
  EXPECT_EQ(compare_text(record + wide_record, "wide_last.swf"), 2u);
  EXPECT_EQ(compare_text("", "empty.swf"), 0u);
  EXPECT_EQ(compare_text("\n\n\n", "blank.swf"), 0u);
}

TEST(SwfDifferential, MalformedLinesFailWithTheReferenceText) {
  const std::string ok = "1 0 0 60 4 -1 -1 4 -1 -1 1 0\n";
  const std::vector<std::string> malformed = {
      "2 0 0 60 x\n",
      "2 0 0 60 4 -1 -1 4 -1 -1 1 0 -1 -1 -1 -1 -1 -1 7\n",  // 19 fields
      "2 0 0 60 4 -1 -1 4 -1 -1 1 0 -1 -1 -1 -1 -1 -1 x\n",  // 19th is not a number
      "2 123.0\n",                                            // no processor count
      "2 0 0 60 -1 -1 -1 -1\n",
      "2 0 0 60 1e\n",
      "2 0 0 60 --4\n",
      "2 0 0 60 4,\n",
      "2 0 0 60 0x\n",
      "2 0 0 60 .\n",
      "2 0 0 60 -\n",
      "2 0 0 60 +\n",
      "2 0 0 60 5\v6\n",
      std::string("2 0 0 60 4\0 5\n", 14),
      "2 0 0 60 12345678901234567890x\n",
      "2 0 0 60 4 -1 -1 4 -1 -1 nan(\n",
      "; MaxProcs: lots\n",
      "; MaxNodes: -5\n",
      "; MaxJobs:\n",
      "; MaxNodes: 8\n2 0 0 60 9\n",
      "; MaxProcs: 8\n; MaxNodes: 16\n2 0 0 60 9\n",
      "; MaxNodes: 8\n2 0 0 60 -1 -1 -1 9.5\n",
  };
  for (const std::string& line : malformed) {
    compare_text(ok + line + ok, "malformed.swf");
  }
}

TEST(SwfDifferential, NonFiniteAndOutOfRangeValuesAreNowErrors) {
  // Inputs the reference reader accepted through undefined casts or with a
  // non-finite time; it is not run on them.
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"1 0 0 60 nan -1 -1 nan -1 -1 1 0\n", "edge.swf:1: field 5 is not a finite number: 'nan'"},
      {"1 0 0 60 1e20 -1 -1 4 -1 -1 1 0\n", "edge.swf:1: field 5 (processors) is out of range"},
      {"1 0 0 60 -1 -1 -1 inf\n", "edge.swf:1: field 8 is not a finite number: 'inf'"},
      {"-1 0 0 60 4\n", "edge.swf:1: field 1 (job id) is out of range: '-1'"},
      {"18446744073709551616 0 0 60 4\n", "edge.swf:1: field 1 (job id) is out of range"},
      {"1 0 0 60 4 -1 -1 4 -1 -1 1e30 0\n", "edge.swf:1: field 11 (status) is out of range"},
      {"1 0 0 60 4 -1 -1 4 -1 -1 -2147483649 0\n", "edge.swf:1: field 11 (status) is out"},
      {"1 0 0 60 4 -1 -1 4 -1 -1 1 4294967296\n", "edge.swf:1: field 12 (user id) is out"},
      {"1 inf 0 60 4\n", "edge.swf:1: field 2 is not a finite number: 'inf'"},
      {"1 0 0 nan 4\n", "edge.swf:1: field 4 is not a finite number: 'nan'"},
      {"1 0 -infinity 60 4\n", "edge.swf:1: field 3 is not a finite number: '-infinity'"},
      {"1 0 0 1e400 4\n", "edge.swf:1: field 4 is not a finite number: '1e400'"},
      {"1 0 0 60 4 -1 -1 4 -1 -1 1 0 -1 -1 -1 -1 -1 NaN\n",
       "edge.swf:1: field 18 is not a finite number: 'NaN'"},
  };
  for (const auto& [text, message] : rejected) {
    const std::string error = new_reader_error(text);
    EXPECT_EQ(error.rfind("mcsim: " + message, 0), 0u) << error;
  }
}

}  // namespace
}  // namespace mcsim
