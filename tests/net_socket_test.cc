// Unit tests for the socket helpers behind the wire server's acceptor:
// the TCP_NODELAY setter (including its error paths on invalid or
// wrong-protocol fds) and non-blocking accept.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "net/socket.h"

namespace asap {
namespace net {
namespace {

TEST(SocketOptionsTest, TcpNoDelaySucceedsOnATcpSocket) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  Socket sock(fd);
  EXPECT_TRUE(sock.SetTcpNoDelay().ok());
}

TEST(SocketOptionsTest, TcpNoDelayFailsOnAnInvalidFd) {
  Socket sock;  // fd == -1
  const Status status = sock.SetTcpNoDelay();
  EXPECT_FALSE(status.ok());
  // The error names the failing option so a log line is actionable.
  EXPECT_NE(status.message().find("TCP_NODELAY"), std::string::npos);
}

TEST(SocketOptionsTest, TcpNoDelayFailsOnAUnixSocket) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  Socket sock(fd);
  // IPPROTO_TCP options do not apply to AF_UNIX; the setter must
  // surface the error, not swallow it.
  EXPECT_FALSE(sock.SetTcpNoDelay().ok());
}

TEST(SocketOptionsTest, AcceptNonBlockingReportsAnEmptyBacklog) {
  Socket listener = ListenTcp("127.0.0.1", 0, 4).ValueOrDie();
  ASSERT_TRUE(listener.SetNonBlocking().ok());
  Socket conn;
  EXPECT_EQ(AcceptNonBlocking(listener, &conn), AcceptStatus::kWouldBlock);
  EXPECT_FALSE(conn.valid());
}

TEST(SocketOptionsTest, AcceptNonBlockingYieldsANonBlockingConnection) {
  Socket listener = ListenTcp("127.0.0.1", 0, 4).ValueOrDie();
  ASSERT_TRUE(listener.SetNonBlocking().ok());
  const uint16_t port = LocalPort(listener).ValueOrDie();
  Socket client = ConnectTcp("127.0.0.1", port).ValueOrDie();

  Socket conn;
  AcceptStatus status = AcceptNonBlocking(listener, &conn);
  while (status == AcceptStatus::kRetry) {
    status = AcceptNonBlocking(listener, &conn);
  }
  ASSERT_EQ(status, AcceptStatus::kAccepted);
  ASSERT_TRUE(conn.valid());
  const int flags = ::fcntl(conn.fd(), F_GETFL, 0);
  ASSERT_GE(flags, 0);
  // accept4(SOCK_NONBLOCK) (or the fcntl fallback) must already have
  // marked the connection non-blocking — the event loops never set it.
  EXPECT_NE(flags & O_NONBLOCK, 0);
}

TEST(SocketOptionsTest, AcceptNonBlockingFailsOnAnInvalidListener) {
  Socket bogus;  // fd == -1
  Socket conn;
  EXPECT_EQ(AcceptNonBlocking(bogus, &conn), AcceptStatus::kError);
}

}  // namespace
}  // namespace net
}  // namespace asap
