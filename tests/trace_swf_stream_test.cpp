// SwfStreamReader: the incremental parser behind read_swf and the
// streaming replay path — header-directive dialect, per-record delivery,
// and the `file:line:` diagnostics contract.
#include "trace/swf_stream.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mcsim {
namespace {

std::string record_line(std::uint64_t id, double submit, double run,
                        std::uint32_t procs) {
  std::ostringstream line;
  line << id << ' ' << submit << " 0 " << run << ' ' << procs << " -1 -1 "
       << procs << " -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  return line.str();
}

TEST(SwfStream, DeliversRecordsOneAtATime) {
  std::istringstream in("; a log\n" + record_line(1, 0.0, 60.0, 4) +
                        record_line(2, 30.0, 90.0, 8));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 1u);
  EXPECT_EQ(reader.records_read(), 1u);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 2u);
  EXPECT_EQ(rec.processors, 8u);
  EXPECT_FALSE(reader.next(rec));
  EXPECT_FALSE(reader.next(rec));  // stays exhausted
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(SwfStream, ParsesHeaderDirectives) {
  std::istringstream in(
      "; Computer: IBM SP2\n"
      "; MaxJobs: 73496\n"
      ";\tMaxRecords: 73496\n"
      "; maxnodes: 128\n"  // keys are case-insensitive
      "; MaxRuntime: 64800\n"
      "; UnixStartTime: 893683200\n"
      "; Note: MaxNodes counts nodes, not processors\n" +
      record_line(1, 0.0, 60.0, 4));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  const SwfHeaderInfo& header = reader.header();
  EXPECT_EQ(header.max_jobs, 73496);
  EXPECT_EQ(header.max_records, 73496);
  EXPECT_EQ(header.max_nodes, 128);
  EXPECT_EQ(header.max_procs, -1);
  EXPECT_EQ(header.max_runtime, 64800);
  EXPECT_EQ(header.unix_start_time, 893683200);
  // Every header line is kept verbatim, directives included.
  EXPECT_EQ(header.comments.size(), 7u);
  EXPECT_EQ(header.comments.front(), "Computer: IBM SP2");
}

TEST(SwfStream, DeclaredProcessorsPrefersMaxProcs) {
  SwfHeaderInfo header;
  EXPECT_EQ(header.declared_processors(), -1);
  header.max_nodes = 72;
  EXPECT_EQ(header.declared_processors(), 72);
  header.max_procs = 144;  // two processors per node
  EXPECT_EQ(header.declared_processors(), 144);
}

TEST(SwfStream, FreeTextColonCommentsAreNotDirectives) {
  // mcsim's own exports carry "Version: <git describe>" and "Command: ..."
  // lines; neither is a numeric archive directive and neither may error.
  std::istringstream in(
      "; Version: v1.2.3-4-gdeadbee-dirty\n"
      "; Command: mcsim point --policy=GS\n"
      "; Conversion: ask the archive maintainer\n" +
      record_line(1, 0.0, 60.0, 4));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(reader.header().comments.size(), 3u);
  EXPECT_EQ(reader.header().declared_processors(), -1);
}

TEST(SwfStream, MalformedDirectiveErrorsWithFileAndLine) {
  std::istringstream in("; ok\n; MaxProcs: lots\n" + record_line(1, 0, 60, 4));
  SwfStreamReader reader(in, "bad.swf");
  TraceRecord rec;
  try {
    reader.next(rec);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bad.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("MaxProcs"), std::string::npos) << what;
    EXPECT_NE(what.find("'lots'"), std::string::npos) << what;
  }
}

TEST(SwfStream, NegativeDirectiveValueErrors) {
  std::istringstream in("; MaxNodes: -5\n" + record_line(1, 0, 60, 4));
  SwfStreamReader reader(in, "neg.swf");
  TraceRecord rec;
  EXPECT_THROW(reader.next(rec), std::invalid_argument);
}

TEST(SwfStream, RecordWiderThanDeclaredMachineErrors) {
  std::istringstream in("; MaxNodes: 64\n" + record_line(1, 0.0, 60.0, 65));
  SwfStreamReader reader(in, "wide.swf");
  TraceRecord rec;
  try {
    reader.next(rec);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("wide.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("65 processors"), std::string::npos) << what;
    EXPECT_NE(what.find("MaxNodes: 64"), std::string::npos) << what;
  }
}

TEST(SwfStream, RecordAtDeclaredWidthIsAccepted) {
  std::istringstream in("; MaxProcs: 64\n" + record_line(1, 0.0, 60.0, 64));
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.processors, 64u);
}

TEST(SwfStream, TruncatedTrailingFieldsReadAsMissing) {
  // Archive logs drop unused trailing columns; field 5 present suffices.
  std::istringstream in("3 120 5 600 16 -1 -1 16 -1 -1 1 9\n");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 3u);
  EXPECT_EQ(rec.processors, 16u);
  EXPECT_EQ(rec.user_id, 9u);
}

TEST(SwfStream, TruncatedRecordWithoutProcessorsErrorsWithLine) {
  std::istringstream in(record_line(1, 0.0, 60.0, 4) + "9999 123.0\n");
  SwfStreamReader reader(in, "trunc.swf");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  try {
    reader.next(rec);
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("trunc.swf:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("no processor count"), std::string::npos) << what;
  }
}

// Values a record cannot hold: before these checks each was accepted, and
// the casts to integer fields were undefined behaviour.
void expect_rejected(const std::string& line, const std::string& message) {
  std::istringstream in(record_line(1, 0.0, 60.0, 4) + line);
  SwfStreamReader reader(in, "ub.swf");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  try {
    reader.next(rec);
    FAIL() << "expected a parse error for: " << line;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ub.swf:2: " + message), std::string::npos) << what;
  }
}

TEST(SwfStream, NanOrHugeProcessorCountErrors) {
  expect_rejected("2 0 0 60 nan -1 -1 nan -1 -1 1 0\n",
                  "field 5 is not a finite number: 'nan'");
  expect_rejected("2 0 0 60 1e20 -1 -1 4 -1 -1 1 0\n",
                  "field 5 (processors) is out of range: '1e20'");
  // A missing allocation falls back to the requested count, checked alike.
  expect_rejected("2 0 0 60 -1 -1 -1 4294967296 -1 -1 1 0\n",
                  "field 8 (processors) is out of range: '4294967296'");
}

TEST(SwfStream, NegativeJobIdErrors) {
  expect_rejected("-1 0 0 60 4 -1 -1 4 -1 -1 1 0\n",
                  "field 1 (job id) is out of range: '-1'");
}

TEST(SwfStream, StatusBeyondIntErrors) {
  expect_rejected("2 0 0 60 4 -1 -1 4 -1 -1 1e30 0\n",
                  "field 11 (status) is out of range: '1e30'");
}

TEST(SwfStream, NonFiniteTimesError) {
  expect_rejected("2 inf 0 60 4 -1 -1 4 -1 -1 1 0\n",
                  "field 2 is not a finite number: 'inf'");
  expect_rejected("2 0 0 nan 4 -1 -1 4 -1 -1 1 0\n",
                  "field 4 is not a finite number: 'nan'");
}

TEST(SwfStream, UserIdBeyondUint32Errors) {
  expect_rejected("2 0 0 60 4 -1 -1 4 -1 -1 1 5e9\n",
                  "field 12 (user id) is out of range: '5e9'");
}

TEST(SwfStream, LargestRepresentableValuesAreAccepted) {
  std::istringstream in("9007199254740993 0 0 60 4294967295 -1 -1 4 -1 -1 2147483647 "
                        "4294967295.5\n");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 9007199254740992u);  // strtod rounds to the nearest double
  EXPECT_EQ(rec.processors, 4294967295u);
  EXPECT_EQ(rec.user_id, 4294967295u);
  EXPECT_FALSE(rec.killed_by_limit);
}

TEST(SwfStream, RecordsStraddlingBlocksParse) {
  // A comment filling the first block up to mid-record, then a record line
  // longer than a whole block (padded with blanks).
  const std::string comment = ";" + std::string(SwfStreamReader::kBlockBytes - 20, 'c') + "\n";
  const std::string wide = "3 10 0 30 8" + std::string(SwfStreamReader::kBlockBytes + 7, ' ') +
                           "-1 -1 8 -1 -1 1 2\n";
  std::istringstream in(comment + record_line(2, 5.0, 60.0, 4) + wide + "4 20 0 40 2");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 2u);
  EXPECT_EQ(rec.run_time, 60.0);
  EXPECT_EQ(reader.line_number(), 2u);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.job_id, 3u);
  EXPECT_EQ(rec.user_id, 2u);
  ASSERT_TRUE(reader.next(rec));  // the last line has no '\n'
  EXPECT_EQ(rec.job_id, 4u);
  EXPECT_EQ(rec.processors, 2u);
  EXPECT_EQ(reader.line_number(), 4u);
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.header().comments.front().size(), SwfStreamReader::kBlockBytes - 20);
}

TEST(SwfStream, HeaderOnlyLogYieldsNoRecordsButAHeader) {
  std::istringstream in("; MaxProcs: 430\n; MaxJobs: 0\n");
  SwfStreamReader reader(in, "<swf>");
  TraceRecord rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.records_read(), 0u);
  EXPECT_EQ(reader.header().max_procs, 430);
}

TEST(SwfStream, ScanSummarisesWithoutMaterialising) {
  const std::string path = ::testing::TempDir() + "/mcsim_scan_test.swf";
  {
    std::ofstream out(path);
    out << "; MaxNodes: 128\n";
    out << record_line(1, 0.0, 50.0, 4);     // 200 proc-seconds
    out << record_line(2, 100.0, 25.0, 8);   // 200 proc-seconds
    out << record_line(3, 40.0, 0.0, 16);    // zero run: counted, unusable
  }
  const SwfScan scan = scan_swf_file(path);
  EXPECT_EQ(scan.header.max_nodes, 128);
  EXPECT_EQ(scan.summary.total_records, 3u);
  EXPECT_EQ(scan.summary.usable_records, 2u);
  EXPECT_DOUBLE_EQ(scan.summary.first_submit, 0.0);
  EXPECT_DOUBLE_EQ(scan.summary.last_submit, 100.0);
  EXPECT_DOUBLE_EQ(scan.summary.gross_work, 400.0);
  EXPECT_EQ(scan.summary.max_processors, 8u);
}

TEST(SwfStream, FileStreamRejectsMissingFile) {
  EXPECT_THROW(SwfFileStream("/nonexistent/missing.swf"), std::invalid_argument);
}

}  // namespace
}  // namespace mcsim
