#include "util/status.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "util/check.h"

namespace colgraph {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_EQ(Status::NotFound("missing").message(), "missing");
}

TEST(StatusTest, ServingCodesRenderDistinctly) {
  EXPECT_EQ(Status::DeadlineExceeded("t").ToString(),
            "Deadline exceeded: t");
  EXPECT_EQ(Status::Cancelled("c").ToString(), "Cancelled: c");
  EXPECT_EQ(Status::ResourceExhausted("r").ToString(),
            "Resource exhausted: r");
  EXPECT_EQ(Status::Unavailable("u").ToString(), "Unavailable: u");
  // The serving codes are mutually exclusive with each other and OK.
  EXPECT_FALSE(Status::DeadlineExceeded("t").IsCancelled());
  EXPECT_FALSE(Status::ResourceExhausted("r").IsUnavailable());
  EXPECT_FALSE(Status::Unavailable("u").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::IOError("disk gone").ToString(), "IO error: disk gone");
  EXPECT_EQ(Status::Corruption("").ToString(), "Corruption");
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::NotFound("gone");
  Status b = a;
  EXPECT_TRUE(b.IsNotFound());
  EXPECT_EQ(b.message(), "gone");
  EXPECT_EQ(a, b);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  std::string out = std::move(v).value();
  EXPECT_EQ(out, "hello");
}

TEST(StatusOrTest, StatusOfATemporaryIsOwned) {
  // COLGRAPH_CHECK_OK(f().status()) binds the Status with `auto&&`; a
  // reference into the temporary StatusOr would dangle once the full
  // expression ends, so an rvalue StatusOr hands its Status out by value.
  EXPECT_TRUE((std::is_same_v<decltype(StatusOr<int>(1).status()), Status>));
  StatusOr<int> lvalue(1);
  EXPECT_TRUE((std::is_same_v<decltype(lvalue.status()), const Status&>));
  const Status moved = StatusOr<int>(Status::NotFound("gone")).status();
  EXPECT_TRUE(moved.IsNotFound());
  COLGRAPH_CHECK_OK(StatusOr<int>(3).status());
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  COLGRAPH_ASSIGN_OR_RETURN(int half, Half(x));
  COLGRAPH_RETURN_NOT_OK(half > 100 ? Status::OutOfRange("big") : Status::OK());
  *out = half;
  return Status::OK();
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesError) {
  int out = 0;
  EXPECT_TRUE(UseMacros(3, &out).IsInvalidArgument());
  EXPECT_TRUE(UseMacros(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseMacros(1000, &out).IsOutOfRange());
}

}  // namespace
}  // namespace colgraph
