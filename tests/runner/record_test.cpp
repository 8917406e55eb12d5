// JSONL run records and the thread-safe progress reporter.
#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runner/record.h"

namespace yukta::runner {
namespace {

RunRecord
sampleRecord()
{
    RunRecord r;
    r.index = 3;
    r.scheme = core::Scheme::kYuktaFull;
    r.workload = "blackscholes";
    r.seed = 2;
    r.wall_seconds = 1.5;
    r.metrics.exec_time = 456.0;
    r.metrics.energy = 100.0;
    r.metrics.exd = 45600.0;
    r.metrics.completed = true;
    r.metrics.periods = 912;
    return r;
}

TEST(Record, JsonLineCarriesTheSchema)
{
    const std::string line = toJsonLine(sampleRecord());
    EXPECT_NE(line.find("\"index\":3"), std::string::npos);
    EXPECT_NE(line.find("\"scheme\":\"Yukta: HW SSV+OS SSV\""),
              std::string::npos);
    EXPECT_NE(line.find("\"workload\":\"blackscholes\""),
              std::string::npos);
    EXPECT_NE(line.find("\"seed\":2"), std::string::npos);
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(line.find("\"exd\":45600"), std::string::npos);
    EXPECT_NE(line.find("\"completed\":true"), std::string::npos);
    EXPECT_NE(line.find("\"trace_samples\":0"), std::string::npos);
    // One line, no embedded newlines.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    // No error field unless there is an error.
    EXPECT_EQ(line.find("\"error\""), std::string::npos);
    // Clean unsupervised run: no fault or supervisor blocks.
    EXPECT_NE(line.find("\"violation_time\":0"), std::string::npos);
    EXPECT_NE(line.find("\"supervised\":false"), std::string::npos);
    EXPECT_EQ(line.find("\"fault_plan\""), std::string::npos);
    EXPECT_EQ(line.find("\"sup_"), std::string::npos);
}

TEST(Record, FaultAndSupervisorFieldsAppearWhenPresent)
{
    RunRecord r = sampleRecord();
    r.fault_plan = "seed=7;p_big:nan@20+10";
    r.supervised = true;
    r.attempts = 2;
    r.metrics.violation_time = 3.5;
    r.metrics.faults.corrupted_ticks = 20;
    r.metrics.faults.corrupted_fields = 20;
    r.metrics.supervisor.transition_count = 4;
    r.metrics.supervisor.invalid_ticks = 20;
    r.metrics.supervisor.repaired_fields = 20;
    r.metrics.supervisor.time_hold = 1.5;
    r.metrics.supervisor.time_fallback = 8.5;
    const std::string line = toJsonLine(r);
    EXPECT_NE(line.find("\"fault_plan\":\"seed=7;p_big:nan@20+10\""),
              std::string::npos);
    EXPECT_NE(line.find("\"supervised\":true"), std::string::npos);
    EXPECT_NE(line.find("\"attempts\":2"), std::string::npos);
    EXPECT_NE(line.find("\"violation_time\":3.5"), std::string::npos);
    EXPECT_NE(line.find("\"faults_fields\":20"), std::string::npos);
    EXPECT_NE(line.find("\"sup_transitions\":4"), std::string::npos);
    EXPECT_NE(line.find("\"sup_invalid_ticks\":20"), std::string::npos);
    EXPECT_NE(line.find("\"sup_time_degraded\":10"), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Record, ErrorTypeIsEmittedAlongsideTheError)
{
    RunRecord r = sampleRecord();
    r.status = TaskOutcome::Status::kError;
    r.error = "boom";
    r.error_type = "std::runtime_error";
    const std::string line = toJsonLine(r);
    EXPECT_NE(line.find("\"error\":\"boom\""), std::string::npos);
    EXPECT_NE(line.find("\"error_type\":\"std::runtime_error\""),
              std::string::npos);
}

TEST(Record, ErrorsAreEscaped)
{
    RunRecord r = sampleRecord();
    r.status = TaskOutcome::Status::kError;
    r.error = "bad \"quote\"\nand\tcontrol\x01";
    const std::string line = toJsonLine(r);
    EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(line.find("bad \\\"quote\\\"\\nand\\tcontrol\\u0001"),
              std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Record, EscapedErrorLineIsPinnedByteForByte)
{
    // A quote, a backslash, a newline, a raw control byte and a UTF-8
    // sequence (passed through as is), against the whole line.
    RunRecord r = sampleRecord();
    r.status = TaskOutcome::Status::kError;
    r.error = "a \"b\" c:\\d\ne\x01 caf\xc3\xa9";
    EXPECT_EQ(toJsonLine(r),
              "{\"index\":3,\"scheme\":\"Yukta: HW SSV+OS SSV\","
              "\"workload\":\"blackscholes\",\"seed\":2,"
              "\"status\":\"error\",\"wall_seconds\":1.5,\"attempts\":0,"
              "\"exec_time\":456,\"energy\":100,\"exd\":45600,"
              "\"completed\":true,\"emergency_time\":0,\"periods\":912,"
              "\"trace_samples\":0,\"violation_time\":0,"
              "\"supervised\":false,"
              "\"error\":\"a \\\"b\\\" c:\\\\d\\ne\\u0001 caf\xc3\xa9\"}");
}

TEST(Record, WriteJsonLineAppendsNewline)
{
    std::ostringstream os;
    writeJsonLine(os, sampleRecord());
    writeJsonLine(os, sampleRecord());
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Record, ProgressReporterCountsFromAnyThread)
{
    std::ostringstream os;
    ProgressReporter reporter(&os, 8);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            reporter.report(sampleRecord());
            reporter.report(sampleRecord());
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    const std::string out = os.str();
    EXPECT_NE(out.find("[1/8]"), std::string::npos);
    EXPECT_NE(out.find("[8/8]"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 8);
}

TEST(Record, NullStreamDisablesReporting)
{
    ProgressReporter reporter(nullptr, 1);
    reporter.report(sampleRecord());  // Must not crash.
}

}  // namespace
}  // namespace yukta::runner
