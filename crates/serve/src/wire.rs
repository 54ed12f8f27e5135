//! Socket plumbing shared by every endpoint of the newline-JSON protocol:
//! the threads front, the reactor front and [`crate::client::Client`].
//!
//! Every message is small and answered before the next one is sent, which
//! is the traffic Nagle's algorithm handles worst. A message written as
//! two `send`s (body, then `\n`) has its second segment held until the
//! peer ACKs the first, and the peer delays that ACK by about 40 ms. Even
//! a message written in one `send` waits behind a previous un-ACKed
//! segment on a pipelined connection. So every stream is configured with
//! `TCP_NODELAY` and every message leaves in a single write.

use std::fmt::Display;
use std::io::{self, Write};
use std::net::TcpStream;

/// Prepares an accepted or connected stream for request/reply traffic:
/// disables Nagle's algorithm so each message goes out when written.
///
/// # Errors
///
/// The `setsockopt` failure, if any.
pub(crate) fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Writes `msg` and its terminating newline with one `write_all`. The line
/// is formatted into `buf`, which is cleared first and reused across
/// messages so steady-state writes allocate nothing.
///
/// # Errors
///
/// The write failure, if any.
pub(crate) fn write_line(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    msg: impl Display,
) -> io::Result<()> {
    buf.clear();
    writeln!(buf, "{}", msg)?;
    w.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls, so a test can tell one write from two.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_leaves_in_one_write_and_the_buffer_is_reused() {
        let mut out = Counting::default();
        let mut buf = Vec::new();
        write_line(&mut out, &mut buf, "{\"ok\":true}").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"{\"ok\":true}\n");
        let cap = buf.capacity();
        write_line(&mut out, &mut buf, 7).unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(out.bytes, b"{\"ok\":true}\n7\n");
        assert_eq!(buf.capacity(), cap);
    }
}
