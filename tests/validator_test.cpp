// Tests for the model validator: each communication rule of §1 must be
// enforced, and completion must be tracked correctly.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "model/validator.h"

namespace mg::model {
namespace {

using graph::path;

Schedule two_node_exchange() {
  ScheduleBuilder s;
  s.add(0, {0, 0, {1}});
  s.add(0, {1, 1, {0}});
  return s.build();
}

TEST(Validator, AcceptsSimultaneousExchange) {
  const auto report = validate_schedule(path(2), two_node_exchange());
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_time, 1u);
  EXPECT_EQ(report.completion_time, (std::vector<std::size_t>{1, 1}));
}

TEST(Validator, RejectsTwoReceivesInOneRound) {
  // Both ends of a path send to the middle simultaneously.
  ScheduleBuilder s;
  s.add(0, {0, 0, {1}});
  s.add(0, {2, 2, {1}});
  const auto report = validate_schedule(path(3), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("receives two messages"), std::string::npos);
}

TEST(Validator, RejectsTwoSendsInOneRound) {
  ScheduleBuilder s;
  s.add(0, {1, 1, {0}});
  s.add(0, {1, 1, {2}});
  const auto report = validate_schedule(path(3), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("sends two messages"), std::string::npos);
}

TEST(Validator, AcceptsMulticastAsOneSend) {
  ScheduleBuilder s;
  s.add(0, {1, 1, {0, 2}});  // one message to both neighbors
  ValidatorOptions options;
  options.require_completion = false;
  EXPECT_TRUE(validate_schedule(path(3), s.build(), {}, options).ok);
}

TEST(Validator, RejectsNonAdjacentDelivery) {
  ScheduleBuilder s;
  s.add(0, {0, 0, {2}});
  const auto report = validate_schedule(path(3), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("not adjacent"), std::string::npos);
}

TEST(Validator, RejectsSendingUnheldMessage) {
  ScheduleBuilder s;
  s.add(0, {2, 0, {1}});  // processor 0 does not hold message 2
  const auto report = validate_schedule(path(3), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("does not hold"), std::string::npos);
}

TEST(Validator, ReceiveBeforeSendWithinRound) {
  // 0 -> 1 at t=0; 1 forwards the same message to 2 at t=1 (legal: it
  // arrives at time 1 and is sent at time 1).
  ScheduleBuilder s;
  s.add(0, {0, 0, {1}});
  s.add(1, {0, 1, {2}});
  ValidatorOptions options;
  options.require_completion = false;
  EXPECT_TRUE(validate_schedule(path(3), s.build(), {}, options).ok)
      << "forwarding on arrival must be legal";
}

TEST(Validator, RejectsForwardingBeforeArrival) {
  // 1 tries to forward message 0 in the same round it is being sent.
  ScheduleBuilder s;
  s.add(0, {0, 0, {1}});
  s.add(0, {0, 1, {2}});
  const auto report = validate_schedule(path(3), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("does not hold"), std::string::npos);
}

TEST(Validator, RejectsSelfDelivery) {
  ScheduleBuilder s;
  s.add(0, {0, 0, {0, 1}});
  const auto report = validate_schedule(path(2), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("self-delivery"), std::string::npos);
}

TEST(Validator, RejectsOutOfRangeIndices) {
  ScheduleBuilder bad_sender;
  bad_sender.add(0, {0, 9, {1}});
  EXPECT_FALSE(validate_schedule(path(3), bad_sender.build()).ok);

  ScheduleBuilder bad_receiver;
  bad_receiver.add(0, {0, 0, {9}});
  EXPECT_FALSE(validate_schedule(path(3), bad_receiver.build()).ok);

  ScheduleBuilder bad_message;
  bad_message.add(0, {9, 0, {1}});
  EXPECT_FALSE(validate_schedule(path(3), bad_message.build()).ok);
}

TEST(Validator, TelephoneModelRejectsMulticast) {
  ScheduleBuilder s;
  s.add(0, {1, 1, {0, 2}});
  ValidatorOptions options;
  options.model = &telephone_model();
  options.require_completion = false;
  const auto report = validate_schedule(path(3), s.build(), {}, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("telephone"), std::string::npos);
}

TEST(Validator, IncompletionReported) {
  ScheduleBuilder s;
  s.add(0, {0, 0, {1}});  // processor 0 never receives message 1
  const auto report = validate_schedule(path(2), s.build());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("missing messages"), std::string::npos);
}

TEST(Validator, CustomInitialAssignment) {
  // Swap the messages: processor 0 holds message 1 and vice versa; then a
  // single exchange completes gossip.
  ScheduleBuilder s;
  s.add(0, {1, 0, {1}});
  s.add(0, {0, 1, {0}});
  const auto report = validate_schedule(path(2), s.build(), {1, 0});
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(Validator, InitialAssignmentSizeChecked) {
  EXPECT_FALSE(validate_schedule(path(2), Schedule(), {0}).ok);
}

TEST(Validator, LineOfThreeCompletionTimes) {
  // A hand-built (valid, slightly suboptimal) P3 gossip; checks per-node
  // completion times and the forward-on-arrival semantics.
  ScheduleBuilder s;
  s.add(0, {1, 1, {0, 2}});  // everyone has msg 1 at t=1
  s.add(1, {0, 0, {1}});     // center gets 0 at t=2
  s.add(2, {0, 1, {2}});     // forwarded on arrival; right gets 0 at t=3
  s.add(2, {2, 2, {1}});     // center gets 2 at t=3
  s.add(3, {2, 1, {0}});     // left gets 2 at t=4
  const auto report = validate_schedule(path(3), s.build());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_time, 4u);
  EXPECT_EQ(report.completion_time[1], 3u);
  EXPECT_EQ(report.completion_time[2], 3u);
  EXPECT_EQ(report.completion_time[0], 4u);
}

TEST(Validator, OptimalLineOfThreeAtLowerBound) {
  // §1: P3 needs n + r - 1 = 3 rounds; this schedule attains the bound.
  ScheduleBuilder s;
  s.add(0, {1, 1, {0, 2}});
  s.add(0, {0, 0, {1}});
  s.add(1, {2, 2, {1}});
  s.add(1, {0, 1, {2}});
  s.add(2, {2, 1, {0}});
  const auto report = validate_schedule(path(3), s.build());
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_time, 3u);
}

TEST(ValidatorBroadcast, AcceptsProperBroadcast) {
  ScheduleBuilder s;
  s.add(0, {1, 1, {0, 2}});
  const auto report = validate_broadcast(path(3), s.build(), 1);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(ValidatorBroadcast, RejectsForeignMessage) {
  ScheduleBuilder s;
  s.add(0, {0, 0, {1}});
  EXPECT_FALSE(validate_broadcast(path(3), s.build(), 1).ok);
}

TEST(ValidatorBroadcast, RejectsPartialCoverage) {
  ScheduleBuilder s;
  s.add(0, {1, 1, {0}});
  const auto report = validate_broadcast(path(3), s.build(), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("never receives"), std::string::npos);
}

}  // namespace
}  // namespace mg::model
