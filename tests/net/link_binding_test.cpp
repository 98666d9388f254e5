#include <gtest/gtest.h>

#include "net/link.hpp"

namespace e2e::net {
namespace {

TEST(LinkBinding, DirFromResolvesBothSides) {
  sim::Engine eng;
  Link l(eng, "l", 40.0, 100, 9000);
  int a = 0, b = 0;
  EXPECT_FALSE(l.bound());
  l.bind_endpoints(&a, &b);
  EXPECT_TRUE(l.bound());
  EXPECT_EQ(l.dir_from(&a), 0);
  EXPECT_EQ(l.dir_from(&b), 1);
}

TEST(LinkBinding, UnknownEndpointThrows) {
  sim::Engine eng;
  Link l(eng, "l", 40.0, 100, 9000);
  int a = 0, b = 0, c = 0;
  l.bind_endpoints(&a, &b);
  EXPECT_THROW((void)l.dir_from(&c), std::logic_error);
}

}  // namespace
}  // namespace e2e::net
